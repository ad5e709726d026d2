import json
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import voxenc
from voxenc import cli, groupstats, matrixio, report, synthbench
from voxenc.cli import main
from voxenc.encode import brain_score


@pytest.fixture
def runner():
    return CliRunner()


def _synth_dir(runner, tmp_path, preset="linear", extra=()):
    out = tmp_path / f"data_{preset}"
    res = runner.invoke(main, ["synth", "--preset", preset, "--seed", "3",
                               "--out", str(out), *extra])
    assert res.exit_code == 0, res.output
    return out


def test_synth_writes_dataset(runner, tmp_path):
    out = _synth_dir(runner, tmp_path, "linear")
    manifest = matrixio.read_manifest(out / "manifest.json")
    assert matrixio.validate_manifest(manifest) == []
    feats = matrixio.read_matrix(out / "features.fmx")
    y = matrixio.read_matrix(out / manifest["subjects"][0]["response"])
    assert feats.shape[0] == y.shape[0]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("preset", synthbench.PRESETS)
def test_synth_files_equal_cohort(runner, tmp_path, preset):
    out = _synth_dir(runner, tmp_path, preset, ["--n-subjects", "3", "--n-targets", "7"])
    cfg = synthbench.SynthConfig(seed=3, n_subjects=3, n_targets=7)
    cohort = synthbench.build_cohort(preset, cfg)
    manifest = matrixio.read_manifest(out / "manifest.json")
    assert [f["name"] for f in manifest["features"]] == cohort.names
    for record, feats in zip(manifest["features"], cohort.features):
        assert _same_bits(matrixio.read_matrix(out / record["path"]), feats)
    responses = [y for y, _ in cohort.subjects()]
    assert len(manifest["subjects"]) == len(responses) == 3
    for record, y in zip(manifest["subjects"], responses):
        assert _same_bits(matrixio.read_matrix(out / record["response"]), y)


def test_null_files_score_like_in_memory_cohort(runner, tmp_path):
    out = _synth_dir(runner, tmp_path, "null", ["--n-subjects", "3", "--n-targets", "7"])
    cfg = synthbench.SynthConfig(seed=3, n_subjects=3, n_targets=7)
    expected = synthbench.build_cohort("null", cfg).scores()[0]
    manifest = matrixio.read_manifest(out / "manifest.json")
    X = matrixio.read_matrix(out / "features.fmx")
    for i, record in enumerate(manifest["subjects"]):
        r = brain_score(X, matrixio.read_matrix(out / record["response"]), manifest["blocks"],
                        [slice(None)])[0].r_mean
        assert _same_bits(r, expected[i])


@pytest.mark.parametrize("option, value, needle", [
    ("--n-scans", "120", "too short"),
    ("--n-subjects", "0", "n_subjects"),
])
def test_synth_bad_size_exit_2(runner, tmp_path, option, value, needle):
    out = tmp_path / "data"
    res = runner.invoke(main, ["synth", "--preset", "null", "--out", str(out), option, value])
    _assert_input_error(res, needle)
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "run"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_output_dir_not_a_directory_exit_2(runner, tmp_path, command, below):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    out = afile / "sub" if below else afile
    if command == "synth":
        args = ["synth", "--preset", "linear", "--out", str(out)]
        needle = f"Invalid value for '--out': {afile} is not a directory"
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": str(out), "synth": {"n_subjects": 5}}))
        args = ["run", "--config", str(config)]
        needle = f"config key 'out_dir': {afile} is not a directory"
    res = runner.invoke(main, args)
    _assert_input_error(res, needle)
    assert afile.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"] + (["config.json"] if command == "run" else [])


def test_score_and_contrast_roundtrip(runner, tmp_path):
    out = _synth_dir(runner, tmp_path, "linear")
    scores = tmp_path / "scores.fmx"
    rep = tmp_path / "scores.json"
    res = runner.invoke(main, ["score", "--features", str(out / "features.fmx"),
                               "--response", str(out / "sub000.fmx"),
                               "--manifest", str(out / "manifest.json"),
                               "--out", str(scores), "--report", str(rep)])
    assert res.exit_code == 0, res.output
    r = matrixio.read_matrix(scores)
    assert r.shape == (50,)
    doc = json.loads(rep.read_text())
    assert report.validate_report(doc) == []
    res = runner.invoke(main, ["contrast", "--a", str(scores), "--b", str(scores),
                               "--out", str(tmp_path / "delta.fmx")])
    assert res.exit_code == 0
    assert np.all(matrixio.read_matrix(tmp_path / "delta.fmx") == 0)


@pytest.mark.parametrize("report_name", ["o.json", "sub/../o.json"])
def test_score_out_and_report_same_file_exit_2(runner, tmp_path, report_name):
    data = _synth_dir(runner, tmp_path, "linear")
    out_dir = tmp_path / "out"
    (out_dir / "sub").mkdir(parents=True)
    res = runner.invoke(main, ["score", "--features", str(data / "features.fmx"),
                               "--response", str(data / "sub000.fmx"),
                               "--manifest", str(data / "manifest.json"),
                               "--out", str(out_dir / "o.json"), "--report", str(out_dir / report_name)])
    _assert_input_error(res, "'--out'", "'--report'", "same file")
    assert [p.name for p in out_dir.iterdir()] == ["sub"] and not any((out_dir / "sub").iterdir())


def test_score_report_rerun_byte_identical_excluding_timings(runner, tmp_path):
    data = _synth_dir(runner, tmp_path, "linear")
    docs = []
    for rerun in range(2):
        res = runner.invoke(main, ["score", "--features", str(data / "features.fmx"),
                                   "--response", str(data / "sub000.fmx"),
                                   "--manifest", str(data / "manifest.json"),
                                   "--out", str(tmp_path / "o.fmx"), "--report", str(tmp_path / "r.json")])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "r.json").read_text())
        assert report.validate_report(doc) == []
        assert list(doc["stages"]) == ["timings_seconds"]
        assert list(doc["stages"]["timings_seconds"]) == ["score"]
        assert doc["stages"]["timings_seconds"]["score"] >= 0
        doc["stages"].pop("timings_seconds")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_contrast_target_mismatch_exit_2(runner, tmp_path):
    matrixio.write_matrix(tmp_path / "a.fmx", np.zeros(3))
    matrixio.write_matrix(tmp_path / "b.fmx", np.zeros(4))
    out = tmp_path / "delta.fmx"
    res = runner.invoke(main, ["contrast", "--a", str(tmp_path / "a.fmx"),
                               "--b", str(tmp_path / "b.fmx"), "--out", str(out)])
    _assert_input_error(res, "target mismatch")
    assert not out.exists()


def test_missing_input_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["score", "--features", str(tmp_path / "nope.fmx"),
                               "--response", str(tmp_path / "nope.fmx"),
                               "--manifest", str(tmp_path / "nope.json"),
                               "--out", str(tmp_path / "o.fmx")])
    assert res.exit_code == 2
    assert "not found" in res.output


def _assert_input_error(res, *needles):
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    for needle in needles:
        assert needle in res.output


def test_score_one_dimensional_response_exit_2(runner, tmp_path):
    out = _synth_dir(runner, tmp_path, "linear")
    flat = tmp_path / "flat.fmx"
    matrixio.write_matrix(flat, matrixio.read_matrix(out / "sub000.fmx")[:, 0])
    res = runner.invoke(main, ["score", "--features", str(out / "features.fmx"),
                               "--response", str(flat),
                               "--manifest", str(out / "manifest.json"),
                               "--out", str(tmp_path / "o.fmx")])
    _assert_input_error(res, str(flat), "(60,)")


def test_score_threads_option_removed_exit_2(runner, tmp_path):
    out = _synth_dir(runner, tmp_path, "linear")
    res = runner.invoke(main, ["score", "--features", str(out / "features.fmx"),
                               "--response", str(out / "sub000.fmx"),
                               "--manifest", str(out / "manifest.json"),
                               "--out", str(tmp_path / "o.fmx"), "--threads", "2"])
    _assert_input_error(res, "No such option", "--threads")
    assert not (tmp_path / "o.fmx").exists()


def test_score_feature_shape_errors_exit_2(runner, tmp_path):
    out = _synth_dir(runner, tmp_path, "linear")
    feats = matrixio.read_matrix(out / "features.fmx")
    short = tmp_path / "short.fmx"
    matrixio.write_matrix(short, feats[:57])
    args = ["--response", str(out / "sub000.fmx"), "--manifest", str(out / "manifest.json"),
            "--out", str(tmp_path / "o.fmx")]
    res = runner.invoke(main, ["score", "--features", f"{out / 'features.fmx'},{short}", *args])
    _assert_input_error(res, f"{out / 'features.fmx'} has 60", f"{short} has 57")
    res = runner.invoke(main, ["score", "--features", str(short), *args])
    _assert_input_error(res, f"{short} has 57", f"{out / 'sub000.fmx'} has 60")
    flat = tmp_path / "flat.fmx"
    matrixio.write_matrix(flat, feats[:, 0])
    res = runner.invoke(main, ["score", "--features", f"{out / 'features.fmx'},{flat}", *args])
    _assert_input_error(res, str(flat), "(60,)")


@pytest.mark.parametrize("which, needle", [
    ("features", "feature file {} has no columns"),
    ("response", "response file {} has no targets"),
])
def test_score_empty_matrix_exit_2(runner, tmp_path, which, needle):
    out = _synth_dir(runner, tmp_path, "linear")
    empty = tmp_path / "empty.fmx"
    matrixio.write_matrix(empty, np.empty((60, 0)))
    files = {"features": str(out / "features.fmx"), "response": str(out / "sub000.fmx"), which: str(empty)}
    res = runner.invoke(main, ["score", "--features", files["features"], "--response", files["response"],
                               "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "o.fmx"),
                               "--report", str(tmp_path / "o.json")])
    _assert_input_error(res, needle.format(empty))
    assert not (tmp_path / "o.fmx").exists() and not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("blocks, needle", [
    ([[0, 30], [30, 60]], "need >= 3 blocks"),
    ([[0, 30], [30, 50], [50, 70]], "end at 70"),  # past the files' 60 rows
    ([[0, 30], [30, 45], [45, 58]], "end at 58, but the feature files have 60 rows"),
])
def test_score_bad_blocks_exit_2(runner, tmp_path, blocks, needle):
    out = _synth_dir(runner, tmp_path, "linear")
    doc = json.loads((out / "manifest.json").read_text())
    doc["blocks"] = blocks
    del doc["n_rows"]
    manifest = tmp_path / "bad_blocks.json"
    manifest.write_text(json.dumps(doc))
    res = runner.invoke(main, ["score", "--features", str(out / "features.fmx"),
                               "--response", str(out / "sub000.fmx"), "--manifest", str(manifest),
                               "--out", str(tmp_path / "o.fmx"), "--no-detrend"])
    _assert_input_error(res, str(manifest), needle)
    assert not (tmp_path / "o.fmx").exists()


@pytest.mark.parametrize("rates, needle", [
    ([0.5, 1.0], "feature sample rates differ ('model_a' at 0.5 Hz, 'model_b' at 1 Hz)"),
    ([0.5, 0], "feature 'model_b': sample_rate 0 is not a positive finite number"),
    (["0.5", 0.5], "feature 'model_a': sample_rate '0.5' is not a positive finite number"),
])
def test_score_bad_feature_rates_exit_2(runner, tmp_path, rates, needle):
    out = _synth_dir(runner, tmp_path, "replica", ["--n-subjects", "1"])
    doc = json.loads((out / "manifest.json").read_text())
    assert [f["sample_rate"] for f in doc["features"]] == [0.5, 0.5]
    for f, rate in zip(doc["features"], rates):
        f["sample_rate"] = rate
    manifest = tmp_path / "bad_rates.json"
    manifest.write_text(json.dumps(doc))
    res = runner.invoke(main, ["score", "--features", f"{out / 'features_a.fmx'},{out / 'features_b.fmx'}",
                               "--response", str(out / "sub000.fmx"), "--manifest", str(manifest),
                               "--out", str(tmp_path / "o.fmx"), "--report", str(tmp_path / "r.json")])
    _assert_input_error(res, f"manifest {manifest}", needle)
    assert not (tmp_path / "o.fmx").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["score", "run"])
@pytest.mark.parametrize("index, needle", [
    pytest.param(999, "sub000.fmx has 7 targets: roi 'all': index 999 outside [0, 7)", id="past_targets"),
    pytest.param(-1, "manifest key 'rois' must be an object of non-empty lists of non-negative integer "
                     "indices, got 'all': item 7: -1", id="negative"),
])
def test_roi_index_outside_targets_exit_2(runner, tmp_path, command, index, needle):
    """A ROI index past the response's targets, in a manifest without n_targets, or below 0."""
    out = _synth_dir(runner, tmp_path, "linear", ["--n-targets", "7"])
    doc = json.loads((out / "manifest.json").read_text())
    del doc["n_targets"]
    doc["rois"]["all"].append(index)
    manifest = out / "bad_rois.json"
    manifest.write_text(json.dumps(doc))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(tmp_path / "run_out"), "manifest": str(manifest)}))
    args = {"score": ["score", "--features", str(out / "features.fmx"), "--response", str(out / "sub000.fmx"),
                      "--manifest", str(manifest), "--out", str(tmp_path / "o.fmx"),
                      "--report", str(tmp_path / "r.json")],
            "run": ["run", "--config", str(config)]}[command]
    res = runner.invoke(main, args)
    _assert_input_error(res, needle)
    assert not any((tmp_path / name).exists() for name in ("o.fmx", "r.json", "run_out"))


def test_json_files_sorted_indented_with_final_newline(runner, tmp_path):
    """synth, run, score --report and group-stats write JSON through one writer."""
    data = _synth_dir(runner, tmp_path, "replica", ["--n-subjects", "6", "--n-targets", "15"])
    run_out = tmp_path / "run_out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(run_out), "manifest": str(data / "manifest.json")}))
    for args in (["run", "--config", str(config)],
                 ["score", "--features", f"{data / 'features_a.fmx'},{data / 'features_b.fmx'}",
                  "--response", str(data / "sub000.fmx"), "--manifest", str(data / "manifest.json"),
                  "--out", str(tmp_path / "scores.fmx"), "--report", str(tmp_path / "score_report.json")],
                 ["group-stats", "--in", str(run_out / "group_delta.fmx"), "--rois", str(data / "manifest.json"),
                  "--out", str(tmp_path / "stats.json")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    for path in (data / "manifest.json", run_out / "resolved_config.json", run_out / "report.json",
                 tmp_path / "score_report.json", tmp_path / "stats.json"):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


@pytest.fixture(scope="module")
def score_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("score_inputs")
    res = CliRunner().invoke(main, ["synth", "--preset", "linear", "--seed", "3",
                                    "--n-targets", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["features.fmx", "sub000.fmx", "manifest.json"]), data=st.data())
def test_score_truncated_input_exit_2(score_inputs, name, data):
    full = (score_inputs / name).read_bytes()
    prefix = full[: data.draw(st.integers(0, len(full) - 1), label="length")]
    if name == "manifest.json":
        try:
            json.loads(prefix)
        except ValueError:
            pass
        else:
            assume(False)  # only trailing whitespace was cut: still a valid manifest
    paths = {n: str(score_inputs / n) for n in ("features.fmx", "sub000.fmx", "manifest.json")}
    with tempfile.TemporaryDirectory() as tmp:
        paths[name] = os.path.join(tmp, name)
        Path(paths[name]).write_bytes(prefix)
        out = os.path.join(tmp, "o.fmx")
        res = CliRunner().invoke(main, ["score", "--features", paths["features.fmx"],
                                        "--response", paths["sub000.fmx"],
                                        "--manifest", paths["manifest.json"], "--out", out])
        _assert_input_error(res, paths[name])
        assert not os.path.exists(out)


#: Packages that ``import voxenc.cli`` must not load: each adds to every command's start-up.
#: hrf_align's threads use ``threading``, which the interpreter has already loaded.
_NOT_LOADED_AT_IMPORT = ("scipy", "concurrent.futures")


def test_import_loads_no_scipy():
    src = str(Path(voxenc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (f"import sys, voxenc.cli; names = {_NOT_LOADED_AT_IMPORT!r}; "
            "print(sorted(m for m in sys.modules if any(m == n or m.startswith(n + '.') for n in names)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_group_stats_sparse_target_null(runner, tmp_path):
    values = np.random.default_rng(4).normal(0.5, 0.2, size=(10, 4))
    values[:7, 2] = 0.0  # 3 nonzero differences: too few for the test
    matrixio.write_matrix(tmp_path / "group.fmx", values)
    out = tmp_path / "stats.json"
    res = runner.invoke(main, ["group-stats", "--in", str(tmp_path / "group.fmx"), "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["p_raw"][2] is None
    assert [p is None for p in doc["p_raw"]] == [False, False, True, False]
    assert doc["significant"][2] is False


def test_group_stats_cmd(runner, tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(0.5, 0.2, size=(10, 15))
    matrixio.write_matrix(tmp_path / "group.fmx", values)
    out = tmp_path / "stats.json"
    (tmp_path / "rois.json").write_text('{"rois": {"first_two": [0, 1]}}')
    res = runner.invoke(main, ["group-stats", "--in", str(tmp_path / "group.fmx"),
                               "--q", "0.05", "--rois", str(tmp_path / "rois.json"),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["n_targets"] == 15
    assert doc["n_significant"] == 15  # strong shift: everything survives
    assert doc["roi_means"] == {"first_two": pytest.approx(values[:, :2].mean())}


@pytest.mark.parametrize("q", ["5", "-1", "0", "nan", "1.5"])
def test_group_stats_bad_q_exit_2(runner, tmp_path, q):
    matrixio.write_matrix(tmp_path / "group.fmx", np.arange(1.0, 19.0).reshape(6, 3))
    res = runner.invoke(main, ["group-stats", "--in", str(tmp_path / "group.fmx"),
                               "--q", q, "--out", str(tmp_path / "stats.json")])
    _assert_input_error(res, "--q must be a number in (0, 1]")
    assert not (tmp_path / "stats.json").exists()


def test_group_stats_q_one_accepted(runner, tmp_path):
    matrixio.write_matrix(tmp_path / "group.fmx", np.arange(1.0, 19.0).reshape(6, 3))
    res = runner.invoke(main, ["group-stats", "--in", str(tmp_path / "group.fmx"),
                               "--q", "1", "--out", str(tmp_path / "stats.json")])
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "stats.json").read_text())["q"] == 1.0


@pytest.mark.parametrize("content, needle", [
    (None, "input file not found"),
    ("{not json", "malformed manifest"),
    ('{"rois": {"a": [0, 7]}}', "ROI index outside [0, 3)"),
])
def test_group_stats_bad_rois_exit_2(runner, tmp_path, content, needle):
    matrixio.write_matrix(tmp_path / "group.fmx", np.arange(1.0, 19.0).reshape(6, 3))
    rois = tmp_path / "rois.json"
    if content is not None:
        rois.write_text(content)
    res = runner.invoke(main, ["group-stats", "--in", str(tmp_path / "group.fmx"),
                               "--rois", str(rois), "--out", str(tmp_path / "stats.json")])
    _assert_input_error(res, needle, str(rois))
    assert not (tmp_path / "stats.json").exists()


def _case(name, *values):
    """A case whose explicit id is the one pytest gave it by position, name + "-" + needle.

    Explicit ids let a case be inserted without renaming the cases after it.
    """
    return pytest.param(*values, id=f"{name}-{values[-1]}")


@pytest.mark.parametrize("shape, needle", [
    _case("shape0", (6,), "must be a 2-D subjects x targets matrix, got shape (6,)"),
    _case("shape1", (6, 3, 2), "must be a 2-D subjects x targets matrix, got shape (6, 3, 2)"),
    _case("shape2", (3, 4), "need >= 5 subjects, got 3"),
])
def test_group_stats_bad_in_exit_2(runner, tmp_path, shape, needle):
    matrixio.write_matrix(tmp_path / "group.fmx", np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))
    res = runner.invoke(main, ["group-stats", "--in", str(tmp_path / "group.fmx"),
                               "--out", str(tmp_path / "stats.json")])
    _assert_input_error(res, needle)
    assert not (tmp_path / "stats.json").exists()


_SCORE_ARGS = ["--features", "X", "--response", "Y", "--manifest", "M", "--out", "out/o.fmx"]


@pytest.mark.parametrize("args, needle", [
    *(pytest.param(["score", *(a.replace(key, "DIR") for a in _SCORE_ARGS)], "cannot read DIR",
                   id=f"score_{key}_dir") for key in "XYM"),
    _case("args3", ["group-stats", "--in", "DIR", "--out", "out/s.json"], "cannot read DIR"),
    _case("args4", ["group-stats", "--in", "G", "--rois", "DIR", "--out", "out/s.json"],
          "cannot read DIR"),
    _case("args5", ["contrast", "--a", "DIR", "--b", "G", "--out", "out/c.fmx"], "cannot read DIR"),
    _case("args6", ["hrf-convolve", "--in", "DIR", "--n-scans", "5", "--out", "out/h.fmx"],
          "cannot read DIR"),
    _case("args7", ["ctc-eval", "--logprobs", "DIR", "--targets", "T"], "cannot read DIR"),
    _case("args8", ["ctc-eval", "--logprobs", "LP", "--targets", "DIR"], "cannot read DIR"),
    _case("args9", ["ctc-eval", "--logprobs", "LP", "--targets", "LATIN1"],
          "malformed targets file LATIN1"),
    _case("args10", ["run", "--config", "DIR"], "cannot read DIR"),
    _case("args11", ["featurize", "--wav", "DIR", "--out", "out/f.fmx"], "cannot read WAV file DIR"),
    _case("args12", ["score", *_SCORE_ARGS[:-1], "nodir/o.fmx"], "directory nodir does not exist"),
    _case("args13", ["score", *_SCORE_ARGS, "--report", "nodir/r.json"],
          "directory nodir does not exist"),
    _case("args14", ["score", *_SCORE_ARGS[:-1], "DIR"], "DIR is a directory"),
    _case("args15", ["featurize", "--wav", "AUDIO", "--out", "nodir/f.fmx"],
          "directory nodir does not exist"),
    _case("args16", ["hrf-convolve", "--in", "G", "--n-scans", "1", "--out", "nodir/h.fmx"],
          "directory nodir does not exist"),
    _case("args17", ["contrast", "--a", "G", "--b", "G", "--out", "nodir/c.fmx"],
          "directory nodir does not exist"),
    _case("args18", ["group-stats", "--in", "G", "--out", "nodir/s.json"],
          "directory nodir does not exist"),
    _case("args19", ["ctc-eval", "--logprobs", "LP", "--targets", "NOTINT"],
          "malformed targets file NOTINT: ValueError: invalid literal for int() with base 10: 'x'"),
    _case("args20", ["ctc-eval", "--logprobs", "LP", "--targets", "LABEL3"],
          "log-probs LP with targets LABEL3: target label 3 outside [1, 3)"),
    _case("args21", ["ctc-eval", "--logprobs", "G", "--targets", "T"],
          "log-probs G with targets T: frame 5: probabilities sum to"),
    _case("args22", ["contrast", "--a", "E04", "--b", "E04", "--out", "out/c.fmx"],
          "score file E04 has no targets: shape (0, 4)"),
    _case("args23", ["contrast", "--a", "G", "--b", "E30", "--out", "out/c.fmx"],
          "score file E30 has no targets: shape (3, 0)"),
])
def test_file_errors_exit_2(runner, tmp_path, score_inputs, args, needle):
    (tmp_path / "DIR").mkdir()
    (tmp_path / "out").mkdir()
    matrixio.write_matrix(tmp_path / "G", np.arange(1.0, 19.0).reshape(6, 3))
    matrixio.write_matrix(tmp_path / "LP", np.log(np.full((4, 3), 1 / 3)))
    matrixio.write_matrix(tmp_path / "E04", np.zeros((0, 4)))
    matrixio.write_matrix(tmp_path / "E30", np.zeros((3, 0)))
    (tmp_path / "T").write_text("1 2")
    (tmp_path / "LATIN1").write_bytes("1 2 \xe9".encode("latin-1"))
    (tmp_path / "NOTINT").write_text("1 x 3")
    (tmp_path / "LABEL3").write_text("1 3")
    _write_pcm16(tmp_path / "AUDIO", np.zeros(1600, dtype="<i2"))
    paths = {"X": score_inputs / "features.fmx", "Y": score_inputs / "sub000.fmx",
             "M": score_inputs / "manifest.json",
             **{name: tmp_path / name
                for name in ("DIR", "G", "LP", "T", "LATIN1", "NOTINT", "LABEL3", "AUDIO", "E04",
                             "E30", "out", "nodir")}}

    def fill(word):  # a placeholder, alone or before "/" or ":", becomes its path
        head, sep, tail = word.partition(":" if word.endswith(":") else "/")
        return f"{paths[head]}{sep}{tail}" if head in paths else word

    res = runner.invoke(main, [fill(a) for a in args])
    _assert_input_error(res, " ".join(map(fill, needle.split(" "))))
    assert list((tmp_path / "out").iterdir()) == [] and not (tmp_path / "nodir").exists()


def _write_fmx(path, values, code=None):
    """Write ``values`` as FMX1; ``code``, if given, replaces the header's dtype byte."""
    matrixio.write_matrix(path, values)
    if code is not None:
        raw = bytearray(Path(path).read_bytes())
        raw[4] = code
        Path(path).write_bytes(raw)


def _bad_matrix(data, fault, good):
    """A matrix and a dtype byte (or None) for ``fault``: "dtype" is ``good`` under
    an unknown dtype code, "nan" a copy of it with a drawn non-finite entry."""
    if fault == "dtype":
        return good, data.draw(st.integers(2, 255), label="dtype code")
    values = good.astype(data.draw(st.sampled_from([np.float32, np.float64]), label="dtype"))
    values.flat[data.draw(st.integers(0, values.size - 1), label="at")] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    return values, None


_SHAPES = st.lists(st.integers(1, 4), max_size=3).map(tuple)


@settings(max_examples=30, deadline=None)
@given(fault=st.sampled_from(["mismatch", "empty", "dtype", "nan"]), bad=st.sampled_from("ab"),
       shape=_SHAPES, data=st.data())
def test_contrast_bad_input_exit_2(fault, bad, shape, data):
    """Score files of other shapes, with no targets, an unknown dtype or a non-finite value."""
    good = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    code = None
    if fault == "mismatch":
        values = np.ones(data.draw(_SHAPES.filter(lambda s: s != shape), label="other shape"))
    elif fault == "empty":
        values = np.ones(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)
                                   .filter(lambda s: 0 in s), label="empty shape"))
    else:
        values, code = _bad_matrix(data, fault, good)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {side: os.path.join(tmp, f"{side}.fmx") for side in "ab"}
        for side, path in paths.items():
            _write_fmx(path, *((values, code) if side == bad else (good,)))
        res = CliRunner().invoke(main, ["contrast", "--a", paths["a"], "--b", paths["b"],
                                        "--out", os.path.join(tmp, "c.fmx")])
        _assert_input_error(res)
        assert sorted(os.listdir(tmp)) == ["a.fmx", "b.fmx"]


@settings(max_examples=30, deadline=None)
@given(fault=st.sampled_from(["ndim", "subjects", "targets", "dtype", "nan"]),
       n_subjects=st.integers(5, 8), n_targets=st.integers(1, 4), data=st.data())
def test_group_stats_bad_input_exit_2(fault, n_subjects, n_targets, data):
    """A matrix that is not 2-D, has < 5 subjects or no targets, an unknown dtype or a non-finite value."""
    code = None
    if fault == "ndim":
        values = np.ones(data.draw(st.lists(st.integers(1, 4), max_size=4)
                                   .filter(lambda s: len(s) != 2), label="shape"))
    elif fault == "subjects":
        values = np.ones((data.draw(st.integers(0, 4), label="subjects"), n_targets))
    elif fault == "targets":
        values = np.ones((n_subjects, 0))
    else:
        values, code = _bad_matrix(data, fault, np.ones((n_subjects, n_targets)))
    with tempfile.TemporaryDirectory() as tmp:
        _write_fmx(os.path.join(tmp, "g.fmx"), values, code)
        res = CliRunner().invoke(main, ["group-stats", "--in", os.path.join(tmp, "g.fmx"),
                                        "--out", os.path.join(tmp, "s.json")])
        _assert_input_error(res)
        assert os.listdir(tmp) == ["g.fmx"]


_NOT_2D = st.lists(st.integers(1, 4), max_size=4).filter(lambda s: len(s) != 2).map(tuple)


@settings(max_examples=30, deadline=None)
@given(fault=st.sampled_from(["ndim", "empty", "dtype", "nan"]), n_features=st.integers(1, 3),
       data=st.data())
def test_hrf_convolve_bad_input_exit_2(fault, n_features, data):
    """Activations that are not 2-D or are empty, with an unknown dtype or a non-finite value."""
    code = None
    if fault == "ndim":
        values = np.ones(data.draw(_NOT_2D, label="shape"))
    elif fault == "empty":
        values = np.ones(data.draw(st.sampled_from([(0, n_features), (2000, 0)]), label="shape"))
    else:
        good = np.random.default_rng(6).normal(size=(2000, n_features))
        values, code = _bad_matrix(data, fault, good)
    with tempfile.TemporaryDirectory() as tmp:
        _write_fmx(os.path.join(tmp, "act.fmx"), values, code)
        res = CliRunner().invoke(main, ["hrf-convolve", "--in", os.path.join(tmp, "act.fmx"),
                                        "--n-scans", "5", "--out", os.path.join(tmp, "out.fmx")])
        _assert_input_error(res)
        assert os.listdir(tmp) == ["act.fmx"]


@settings(max_examples=30, deadline=None)
@given(fault=st.sampled_from(["ndim", "classes", "dtype", "nan"]), n_classes=st.integers(2, 5),
       data=st.data())
def test_ctc_eval_bad_input_exit_2(fault, n_classes, data):
    """Log-probs that are not 2-D or have no classes, with an unknown dtype or a non-finite value."""
    code = None
    if fault == "ndim":
        values = np.zeros(data.draw(_NOT_2D, label="shape"))
    elif fault == "classes":
        values = np.zeros((data.draw(st.integers(0, 4), label="frames"), 0))
    else:
        values, code = _bad_matrix(data, fault, np.full((6, n_classes), -np.log(n_classes)))
    with tempfile.TemporaryDirectory() as tmp:
        _write_fmx(os.path.join(tmp, "lp.fmx"), values, code)
        Path(tmp, "targets.txt").write_text("1", encoding="utf-8")
        res = CliRunner().invoke(main, ["ctc-eval", "--logprobs", os.path.join(tmp, "lp.fmx"),
                                        "--targets", os.path.join(tmp, "targets.txt")])
        _assert_input_error(res)
        assert "log_likelihood" not in res.output
        assert sorted(os.listdir(tmp)) == ["lp.fmx", "targets.txt"]


def test_ctc_eval_cmd(runner, tmp_path):
    p = np.full((4, 3), 1 / 3)
    matrixio.write_matrix(tmp_path / "lp.fmx", np.log(p))
    (tmp_path / "targets.txt").write_text("1 2")
    res = runner.invoke(main, ["ctc-eval", "--logprobs", str(tmp_path / "lp.fmx"),
                               "--targets", str(tmp_path / "targets.txt")])
    assert res.exit_code == 0, res.output
    assert "log_likelihood" in res.output


def test_ctc_eval_empty_targets(runner, tmp_path):
    lp = np.log(np.random.default_rng(4).dirichlet(np.ones(3), size=5))
    matrixio.write_matrix(tmp_path / "lp.fmx", lp)
    (tmp_path / "targets.txt").write_text("")
    res = runner.invoke(main, ["ctc-eval", "--logprobs", str(tmp_path / "lp.fmx"),
                               "--targets", str(tmp_path / "targets.txt")])
    assert res.exit_code == 0, res.output
    ll = float(res.output.split("log_likelihood = ")[1].split()[0])
    assert ll == pytest.approx(lp[:, 0].sum(), rel=1e-9)


def test_ctc_eval_no_frames_no_targets(runner, tmp_path):
    matrixio.write_matrix(tmp_path / "lp.fmx", np.empty((0, 3)))
    (tmp_path / "targets.txt").write_text("")
    res = runner.invoke(main, ["ctc-eval", "--logprobs", str(tmp_path / "lp.fmx"),
                               "--targets", str(tmp_path / "targets.txt")])
    assert res.exit_code == 0, res.output
    assert "log_likelihood = 0\n" in res.output


def test_ctc_eval_float32_logprobs(runner, tmp_path):
    rng = np.random.default_rng(2)
    logits = 3.0 * rng.normal(size=(60, 37))
    targets = " ".join(map(str, rng.integers(1, 37, size=12)))
    (tmp_path / "targets.txt").write_text(targets)
    lls = []
    for dtype in (np.float64, np.float32):
        z = logits.astype(dtype)
        z -= z.max(axis=1, keepdims=True)
        lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))  # softmax in the model's precision
        matrixio.write_matrix(tmp_path / "lp.fmx", lp)
        res = runner.invoke(main, ["ctc-eval", "--logprobs", str(tmp_path / "lp.fmx"),
                                   "--targets", str(tmp_path / "targets.txt")])
        assert res.exit_code == 0, res.output
        lls.append(float(res.output.split("log_likelihood = ")[1].split()[0]))
    assert lls[1] == pytest.approx(lls[0], rel=1e-5)


def test_hrf_convolve_cmd(runner, tmp_path):
    rng = np.random.default_rng(1)
    matrixio.write_matrix(tmp_path / "act.fmx", rng.normal(size=(6000, 3)))
    res = runner.invoke(main, ["hrf-convolve", "--in", str(tmp_path / "act.fmx"),
                               "--out", str(tmp_path / "aligned.fmx"),
                               "--n-scans", "60"])
    assert res.exit_code == 0, res.output
    assert matrixio.read_matrix(tmp_path / "aligned.fmx").shape == (60, 3)


@pytest.mark.parametrize("args, needle", [
    pytest.param(["hrf-convolve", "--in", "flat.fmx", "--n-scans", "5"], "flat.fmx", id="1d_input"),
    pytest.param(["hrf-convolve", "--in", "act.fmx", "--n-scans", "5", "--input-rate", "0"],
                 "'--input-rate'", id="input_rate_0"),
    pytest.param(["hrf-convolve", "--in", "act.fmx", "--n-scans", "5", "--input-rate", "5"],
                 "'--input-rate'", id="input_rate_5"),
    pytest.param(["hrf-convolve", "--in", "act.fmx", "--n-scans", "-3"], "'--n-scans'",
                 id="n_scans_negative"),
    pytest.param(["hrf-convolve", "--in", "act.fmx", "--n-scans", "5", "--tr", "0"], "'--tr'",
                 id="tr_0"),
    pytest.param(["hrf-convolve", "--in", "act.fmx", "--n-scans", "5", "--tr", "nan"], "'--tr'",
                 id="tr_nan"),
    pytest.param(["hrf-convolve", "--in", "act.fmx", "--n-scans", "5", "--input-rate", "inf"],
                 "'--input-rate'", id="input_rate_inf"),
    pytest.param(["hrf-convolve", "--in", "act.fmx", "--n-scans", "5", "--input-rate", "50",
                  "--tr", "0.01"], "'--tr'", id="tr_above_input_rate"),
    pytest.param(["hrf-convolve", "--in", "act.fmx", "--n-scans", "500"], "'--n-scans'",
                 id="n_scans_past_input"),
    pytest.param(["featurize", "--wav", "a.wav", "--n-mels", "0"], "'--n-mels'", id="n_mels_0"),
])
def test_stage_bad_input_exit_2(runner, tmp_path, args, needle):
    act = np.random.default_rng(4).normal(size=(2000, 2))
    matrixio.write_matrix(tmp_path / "act.fmx", act)
    matrixio.write_matrix(tmp_path / "flat.fmx", act[:, 0])
    _write_pcm16(tmp_path / "a.wav", np.zeros(1600, dtype="<i2"))
    args = [str(tmp_path / a) if a.endswith((".fmx", ".wav")) else a for a in args]
    out = tmp_path / "out.fmx"
    res = runner.invoke(main, [*args, "--out", str(out)])
    _assert_input_error(res, needle)
    assert not out.exists()


@pytest.mark.parametrize("command", ["featurize", "hrf-convolve"])
def test_overflow_exit_1_writes_nothing(runner, tmp_path, command):
    from scipy.io import wavfile

    if command == "featurize":  # float64 samples whose powers overflow
        wavfile.write(tmp_path / "big.wav", 16000, np.full(1600, 1e200))
        args = ["featurize", "--wav", str(tmp_path / "big.wav")]
    else:  # unnormalized activations whose convolution overflows
        matrixio.write_matrix(tmp_path / "big.fmx", np.full((2000, 2), 1e308))
        args = ["hrf-convolve", "--in", str(tmp_path / "big.fmx"), "--n-scans", "5", "--no-normalize"]
    out = tmp_path / "out.fmx"
    with np.errstate(over="ignore", invalid="ignore"):
        res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "overflowed to a non-finite value" in res.output and "Traceback" not in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "hrf-convolve"])
def test_float32_inputs_match_float64_casts(runner, tmp_path, command):
    data = _synth_dir(runner, tmp_path, "linear")
    if command == "score":  # the float32 response is detrended in its float64 copy
        inputs = {"x": matrixio.read_matrix(data / "features.fmx"),
                  "y": matrixio.read_matrix(data / "sub000.fmx")}
        args = ["score", "--features", str(tmp_path / "x.fmx"), "--response", str(tmp_path / "y.fmx"),
                "--manifest", str(data / "manifest.json")]
    else:
        inputs = {"x": np.random.default_rng(5).normal(size=(6000, 3))}
        args = ["hrf-convolve", "--in", str(tmp_path / "x.fmx"), "--n-scans", "60"]
    outputs = []
    for dtype in (np.float32, np.float64):
        for name, x in inputs.items():
            matrixio.write_matrix(tmp_path / f"{name}.fmx", x.astype(np.float32).astype(dtype))
        res = runner.invoke(main, [*args, "--out", str(tmp_path / "out.fmx")])
        assert res.exit_code == 0, res.output
        outputs.append((tmp_path / "out.fmx").read_bytes())
    assert outputs[0] == outputs[1]


def test_featurize_cmd(runner, tmp_path):
    from scipy.io import wavfile

    rng = np.random.default_rng(2)
    pcm = (rng.uniform(-0.5, 0.5, 16000) * 32767).astype(np.int16)
    wavfile.write(tmp_path / "a.wav", 16000, pcm)
    res = runner.invoke(main, ["featurize", "--wav", str(tmp_path / "a.wav"),
                               "--kind", "spectrogram", "--out", str(tmp_path / "spec.fmx")])
    assert res.exit_code == 0, res.output
    assert matrixio.read_matrix(tmp_path / "spec.fmx").shape[1] == 161


def _write_pcm16(path, pcm, rate=16000, sampwidth=2):
    import wave

    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1 if pcm.ndim == 1 else pcm.shape[1])
        fh.setsampwidth(sampwidth)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def _stereo_wav_bytes(tmp_path):
    pcm = (np.random.default_rng(3).uniform(-0.5, 0.5, (16000, 2)) * 32767).astype("<i2")
    _write_pcm16(tmp_path / "full.wav", pcm)
    return (tmp_path / "full.wav").read_bytes()


@pytest.mark.parametrize("case, needle", [
    ("not_riff", "not understood"),
    ("pcm8", "unsupported WAV sample format uint8"),
    ("cut_in_data", "Reached EOF prematurely"),
    ("cut_in_frame", "cannot reshape"),
    ("cut_in_header", "truncated header"),
    ("rate_8k", "upsampling from 8000 Hz is not supported"),
    ("short", "signal of 319 samples shorter than one 320-sample window"),
])
def test_featurize_bad_wav_exit_2(runner, tmp_path, case, needle):
    wav = tmp_path / f"{case}.wav"
    if case == "not_riff":
        wav.write_text("hello, this is not audio\n")
    elif case == "pcm8":
        _write_pcm16(wav, np.arange(4000, dtype=np.uint8), sampwidth=1)
    elif case == "rate_8k":
        _write_pcm16(wav, np.zeros(16000, dtype="<i2"), rate=8000)
    elif case == "short":  # shorter than the spectrogram's 20 ms window
        _write_pcm16(wav, np.zeros(319, dtype="<i2"))
    else:
        data = _stereo_wav_bytes(tmp_path)
        # 87 whole frames, 87.5 frames, or cut inside the fmt chunk
        keep = {"cut_in_data": 44 + 87 * 4, "cut_in_frame": 44 + 87 * 4 + 2, "cut_in_header": 30}[case]
        wav.write_bytes(data[:keep])
    res = runner.invoke(main, ["featurize", "--wav", str(wav), "--out", str(tmp_path / "o.fmx")])
    _assert_input_error(res, str(wav), needle)
    assert not (tmp_path / "o.fmx").exists()


def test_featurize_loads_no_scipy(tmp_path):
    _write_pcm16(tmp_path / "a.wav", np.zeros((44100, 2), dtype="<i2"), rate=44100)
    src = str(Path(voxenc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; from voxenc.cli import main; "
            f"main(['featurize', '--wav', {str(tmp_path / 'a.wav')!r}, '--kind', 'mel', "
            f"'--out', {str(tmp_path / 'mel.fmx')!r}], standalone_mode=False); "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert matrixio.read_matrix(tmp_path / "mel.fmx").shape == (98, 80)


def _wav_bytes(pcm: bytes, rate: int = 16000, channels: int = 1, block_align: int = 2,
               bits: int = 16, size: int | None = None) -> bytes:
    """A RIFF WAV of the bytes ``pcm`` whose PCM fmt fields and data size are written as given."""
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block_align & 0xFFFFFFFF,
                      block_align, bits)
    size = len(pcm) if size is None else size
    return (b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVEfmt " + struct.pack("<I", 16)
            + fmt + b"data" + struct.pack("<I", size) + pcm)


#: 4000 PCM16 samples of noise: mono, or 2000 frames of stereo.
_FUZZ_PCM = (np.random.default_rng(4).uniform(-0.5, 0.5, 4000) * 32767).astype("<i2").tobytes()


def _u16(*likely):
    return st.sampled_from(likely) | st.integers(0, 0xFFFF)


@settings(max_examples=60, deadline=None)
@given(rate=st.sampled_from([16000, 22050, 44100, 48000]), channels=_u16(1, 2, 6),
       block_align=_u16(2, 4, 6, 8, 12), bits=_u16(8, 16, 24, 32),
       size=st.sampled_from([len(_FUZZ_PCM)]) | st.integers(0, 2**32 - 1), data=st.data())
def test_featurize_wav_header_fields_exit_0_or_2(rate, channels, block_align, bits, size, data):
    """Any channel count, block align, bit depth and data size, cut at any byte: ``featurize``
    either writes its features or exits 2 without a traceback and writes nothing. The rate
    is one a real file has; ``test_featurize_any_wav_rate_exit_0_or_2`` takes any rate."""
    wav = _wav_bytes(_FUZZ_PCM, rate, channels, block_align, bits, size)
    wav = wav[: data.draw(st.integers(0, len(wav)), label="length")]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "a.wav"), os.path.join(tmp, "a.fmx")
        Path(path).write_bytes(wav)
        res = CliRunner().invoke(main, ["featurize", "--wav", path, "--out", out])
        if res.exit_code == 0:
            assert os.path.exists(out)
        else:
            _assert_input_error(res, path)
            assert not os.path.exists(out)


#: featurize each WAV named on the command line under an address-space limit
#: (argv[1] bytes) and print per file its exit code, the exception's type and
#: whether a traceback was printed.
_RATE_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from click.testing import CliRunner
from voxenc.cli import main
for path in sys.argv[2:]:
    res = CliRunner().invoke(main, ["featurize", "--wav", path, "--out", path + ".fmx"])
    print(res.exit_code, type(res.exception).__name__, "Traceback" in res.output)
"""


@settings(max_examples=6, deadline=None)
@example(rates=[4_278_206_080, 44100])  # a 16 kHz header with 0xFF as the rate's top byte
@given(rates=st.lists(st.integers(0, 2**32 - 1) | st.integers(16000, 120000), min_size=1,
                      max_size=6))
def test_featurize_any_wav_rate_exit_0_or_2(rates):
    """Any rate in the header gives exit 0 or 2, in a child held to 1 GiB of address space.

    Without a limit on the resampler's filter, 4,278,206,080 Hz asks for 134M
    float64 taps: a MemoryError here, not a host that runs out of memory.
    """
    pytest.importorskip("resource")
    src = str(Path(voxenc.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"r{i}.wav") for i in range(len(rates))]
        for path, rate in zip(paths, rates):
            Path(path).write_bytes(_wav_bytes(_FUZZ_PCM, rate))
        child = subprocess.run([sys.executable, "-c", _RATE_CHILD, str(1 << 30), *paths], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr[-2000:]
        for path, rate, line in zip(paths, rates, child.stdout.splitlines(), strict=True):
            code, exc, traceback = line.split()
            assert (code, exc, traceback) in (("0", "NoneType", "False"),
                                              ("2", "SystemExit", "False")), (rate, line)
            assert os.path.exists(path + ".fmx") == (code == "0"), rate


class TestRun:
    def _config(self, tmp_path, **kw):
        cfg = {
            "out_dir": str(tmp_path / "run_out"),
            "synth": {"preset": "replica", "n_subjects": 6, "n_targets": 15,
                      "n_scans": 60, "n_features": 6, "n_time_activation": 6100,
                      "snr": 1.0},
            "seed": 4,
            **kw,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path, cfg

    def test_replica_run_produces_report(self, runner, tmp_path):
        path, cfg = self._config(tmp_path)
        res = runner.invoke(main, ["run", "--config", str(path)])
        assert res.exit_code == 0, res.output
        out_dir = tmp_path / "run_out"
        doc = json.loads((out_dir / "report.json").read_text())
        assert report.validate_report(doc) == []
        assert list(doc["stages"]) == ["timings_seconds"]
        assert sorted(doc["stages"]["timings_seconds"]) == ["contrast", "score", "synth"]
        assert doc["group"]["positive_mean_delta"] > 0
        assert (out_dir / "resolved_config.json").exists()
        assert (out_dir / "scores_per_level.svg").read_text().startswith("<svg")

    def test_rerun_byte_identical_excluding_timings(self, runner, tmp_path):
        path, _ = self._config(tmp_path)
        assert runner.invoke(main, ["run", "--config", str(path)]).exit_code == 0
        doc1 = json.loads((tmp_path / "run_out" / "report.json").read_text())
        assert runner.invoke(main, ["run", "--config", str(path)]).exit_code == 0
        doc2 = json.loads((tmp_path / "run_out" / "report.json").read_text())
        doc1["stages"].pop("timings_seconds")
        doc2["stages"].pop("timings_seconds")
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)

    def test_unknown_key_rejected(self, runner, tmp_path):
        path, cfg = self._config(tmp_path)
        cfg["bogus_key"] = 1
        path.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["run", "--config", str(path)])
        assert res.exit_code == 2
        assert "unknown config keys" in res.output

    def test_bad_threads_config_exit_2(self, runner, tmp_path):
        # there is no worker count to set: 'threads' is an unknown key
        path, _ = self._config(tmp_path, threads=2)
        res = runner.invoke(main, ["run", "--config", str(path)])
        _assert_input_error(res, "unknown config keys", "'threads'")
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("grid, key", [
        ({"min": 10.0, "max": 1e8, "num": "x"}, "lambda_grid.num"),
        ({"min": 10.0, "max": 1e8, "num": 0}, "lambda_grid.num"),
        ({"min": 10.0, "max": 1e8, "num": 2.5}, "lambda_grid.num"),
        ({"min": "10", "max": 1e8, "num": 20}, "lambda_grid.min"),
        ({"min": 10.0, "max": None, "num": 20}, "lambda_grid.max"),
        ({"min": 0.0, "max": 1e8, "num": 20}, "0 < min < max"),
        ({"min": 1e8, "max": 10.0, "num": 20}, "0 < min < max"),
        ({"min": 10.0, "num": 20}, "lambda_grid"),
        ([10.0, 1e8, 20], "lambda_grid"),
    ])
    def test_bad_lambda_grid_exit_2(self, runner, tmp_path, grid, key):
        path, _ = self._config(tmp_path, lambda_grid=grid)
        res = runner.invoke(main, ["run", "--config", str(path)])
        _assert_input_error(res, key)
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("change, needle", [
        ({"synth": {"preset": "typo"}}, "synth.preset"),
        ({"synth": {"bogus": 1}}, "unknown config keys in 'synth': ['bogus']"),
        ({"synth": {"n_subjects": 0}}, "n_subjects"),
        ({"synth": {"snr": "x"}}, "config key 'synth'"),
        ({"synth": None}, "'synth' block or a 'manifest'"),
        ({"alternative": "less"}, "alternative"),
        ({"q": "x"}, "'q'"),
        ({"detrend": "no"}, "detrend"),
        ({"seed": "x"}, "config key 'seed'"),
        ({"seed": 1.5}, "config key 'seed'"),
        ({"seed": True}, "config key 'seed'"),
        ({"synth": {"seed": "x"}}, "seed must be an integer"),
        ({"features": "abc"}, "config key 'features'"),
        ({"features": []}, "config key 'features'"),
        ({"features": [{"path": "a.fmx"}]}, "config key 'features'"),
        ({"features": [{"name": "a", "path": 3}]}, "config key 'features'"),
        ({"features": [{"name": "a", "path": "a.fmx", "sample_rate": 0}]}, "positive sample_rate"),
        ({"features": [{"name": "a", "path": "a.fmx", "rate": 2.0}]}, "config key 'features'"),
        ({"features": ["a.fmx"]}, "config key 'features'"),
        ({"out_dir": 5}, "config key 'out_dir'"),
        ({"out_dir": ""}, "config key 'out_dir'"),
        ({"synth": None, "manifest": 5}, "config key 'manifest'"),
        ({"manifest": ""}, "config key 'manifest'"),
        ({"response": "r.fmx"}, "unknown config keys: ['response']"),
        ({"features": [{"name": "a", "path": "a.fmx", "sample_rate": 0.5},
                       {"name": "b", "path": "b.fmx", "sample_rate": 1.0}]}, "share one sample_rate"),
        ({"features": [{"name": "a", "path": "a.fmx"},
                       {"name": "b", "path": "b.fmx", "sample_rate": 0.5}]}, "[1.0, 0.5]"),
        ({"features": [{"name": "m", "path": "a.fmx"}, {"name": "m", "path": "b.fmx"}]},
         "distinct names"),
    ])
    def test_bad_config_value_exit_2(self, runner, tmp_path, change, needle):
        path, cfg = self._config(tmp_path)
        for key, value in change.items():
            if value is None:
                del cfg[key]
            elif key == "synth":
                cfg["synth"].update(value)
            else:
                cfg[key] = value
        path.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["run", "--config", str(path)])
        _assert_input_error(res, needle)
        assert not (tmp_path / "run_out").exists()

    def test_manifest_run_equals_synth_run(self, runner, tmp_path):
        sizes = {"n_subjects": 6, "n_targets": 15}
        data = _synth_dir(runner, tmp_path, "replica", ["--n-subjects", "6", "--n-targets", "15"])
        features = [{"name": f"model_{m}", "path": str(data / f"features_{m}.fmx")} for m in "ab"]
        outputs = []
        for source in ({"synth": {"preset": "replica", **sizes}},
                       {"manifest": str(data / "manifest.json")},
                       {"manifest": str(data / "manifest.json"), "features": features}):
            out_dir = tmp_path / f"out_{len(outputs)}"
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"out_dir": str(out_dir), "seed": 3, **source}))
            res = runner.invoke(main, ["run", "--config", str(path)])
            assert res.exit_code == 0, res.output
            doc = json.loads((out_dir / "report.json").read_text())
            doc["stages"].pop("timings_seconds")
            outputs.append((doc, (out_dir / "group_delta.fmx").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("case", ["malformed", "overlap", "two_blocks", "short_block",
                                      "no_features", "no_subjects", "feature_rows", "flat_response",
                                      "feature_rates", "feature_names", "blocks_end",
                                      "feature_columns", "response_targets"])
    def test_bad_manifest_run_input_exit_2(self, runner, tmp_path, case):
        data = _synth_dir(runner, tmp_path, "replica", ["--n-subjects", "6", "--n-targets", "15"])
        doc = json.loads((data / "manifest.json").read_text())
        manifest = data / "bad_manifest.json"
        cfg = {"out_dir": str(tmp_path / "run_out"), "manifest": str(manifest)}
        blocks = doc["blocks"]  # 12 blocks of 5 rows
        if case == "malformed":
            del doc["subjects"][0]["id"]
            needles = [str(manifest), "malformed manifest", "'id'"]
        elif case == "overlap":
            blocks[1][0] -= 1
            needles = [str(manifest), "overlap"]
        elif case == "two_blocks":
            doc["blocks"] = [[0, 30], [30, 60]]
            needles = [str(manifest), "need >= 3 blocks"]
        elif case == "short_block":
            blocks[0][1] = blocks[1][0] = 2
            needles = [str(manifest), "block (0, 2) has 2 rows"]
        elif case == "no_features":
            doc["features"] = []
            needles = [str(manifest), "lists no feature files"]
        elif case == "no_subjects":
            doc["subjects"] = []
            needles = [str(manifest), "lists no subjects"]
        elif case == "feature_rows":
            short = tmp_path / "short.fmx"
            matrixio.write_matrix(short, matrixio.read_matrix(data / "features_b.fmx")[:57])
            cfg["features"] = [{"name": "a", "path": str(data / "features_a.fmx")},
                               {"name": "b", "path": str(short)}]
            needles = [f"{data / 'features_a.fmx'} has 60", f"{short} has 57"]
        elif case == "feature_rates":
            doc["features"][1]["sample_rate"] = 1.0
            needles = [str(manifest), "feature sample rates differ"]
        elif case == "feature_names":
            doc["features"].append(dict(doc["features"][0]))
            for f in doc["features"]:
                f["name"] = "m"
            needles = [str(manifest), "feature name 'm' is used 3 times"]
        elif case == "blocks_end":  # the files have 60 rows
            blocks[-1][1] = 58
            del doc["n_rows"]
            needles = [f"the blocks of {manifest} end at 58", "feature files have 60 rows",
                       str(data / "features_a.fmx"), str(data / "features_b.fmx")]
        elif case == "feature_columns":
            matrixio.write_matrix(data / "none.fmx", np.empty((60, 0)))
            doc["features"][1]["path"] = "none.fmx"
            needles = [f"feature file {data / 'none.fmx'} has no columns"]
        elif case == "response_targets":  # found mid-run, after out_dir exists
            matrixio.write_matrix(data / "none.fmx", np.empty((60, 0)))
            doc["subjects"][3]["response"] = "none.fmx"
            needles = [f"response file {data / 'none.fmx'} has no targets"]
        else:  # the fourth subject's response is 1-D: found mid-run, after out_dir exists
            matrixio.write_matrix(data / "flat.fmx", matrixio.read_matrix(data / "sub003.fmx")[:, 0])
            doc["subjects"][3]["response"] = "flat.fmx"
            needles = [str(data / "flat.fmx"), "(60,)"]
        manifest.write_text(json.dumps(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["run", "--config", str(path)])
        _assert_input_error(res, *needles)
        assert not (tmp_path / "run_out").exists()

    def test_missing_config_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--config", str(tmp_path / "none.json")])
        assert res.exit_code == 2


_NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=5),
                         st.lists(st.integers(), max_size=2))
_BAD_RATE = st.one_of(_NOT_A_NUMBER, st.floats(max_value=0), st.just(float("nan")),
                      st.just(float("inf")), st.integers(min_value=2**1024))  # past float range
_GRID = {"min": 10.0, "max": 1e8, "num": 20}
_SYNTH_INTS = ["n_time_activation", "n_scans", "n_features", "n_targets", "n_subjects", "n_blocks"]
_SYNTH_KEYS = {"preset", *(f.name for f in fields(synthbench.SynthConfig))}
_BAD_PATH = st.one_of(st.just(""), st.none(), st.booleans(), st.integers(), st.floats(),
                      st.lists(st.text(max_size=3), max_size=2))

#: Values of a lambda_grid key that are wrong by construction.
_BAD_GRID_VALUES = {
    "min": _BAD_RATE,
    "max": _BAD_RATE,
    "num": st.one_of(_NOT_A_NUMBER, st.integers(max_value=0), st.floats()),
}

#: Values of a synth block key that are wrong by construction.
_BAD_SYNTH_VALUES = {
    "preset": st.one_of(_NOT_A_NUMBER, st.integers()).filter(lambda p: p not in synthbench.PRESETS),
    **dict.fromkeys(_SYNTH_INTS, st.one_of(_NOT_A_NUMBER, st.floats(), st.integers(max_value=0))),
    "seed": st.one_of(_NOT_A_NUMBER, st.floats()),
    "snr": st.one_of(st.booleans(), st.text(max_size=5), st.floats(max_value=0, exclude_max=True),
                     st.just(float("nan"))),
    "activation_rate": st.one_of(_BAD_RATE, st.floats(0, 10, exclude_max=True)),
    "tr_seconds": st.one_of(_BAD_RATE, st.floats(0, 1 / 50)),  # scans at or above 50 Hz
}

#: Config values that are wrong by construction, per run config key.
_BAD_RUN_VALUES = {
    "out_dir": _BAD_PATH,
    "manifest": _BAD_PATH,
    "seed": st.one_of(_NOT_A_NUMBER, st.floats()),
    "q": st.one_of(_NOT_A_NUMBER, st.floats().filter(lambda q: not 0 < q <= 1),
                   st.integers().filter(lambda q: q != 1)),
    "alternative": st.one_of(_NOT_A_NUMBER, st.integers()).filter(
        lambda a: a not in groupstats.ALTERNATIVES),
    "detrend": st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=5)),
    "lambda_grid": st.one_of(
        _NOT_A_NUMBER,
        st.dictionaries(st.sampled_from(["min", "max", "num", "step"]), st.integers(1, 100)).filter(
            lambda g: set(g) != set(_GRID)),
        st.sampled_from(sorted(_BAD_GRID_VALUES)).flatmap(
            lambda k: _BAD_GRID_VALUES[k].map(lambda v: {**_GRID, k: v})),
        st.tuples(st.floats(1, 1e8), st.floats(1, 1e8)).map(  # min >= max
            lambda v: {**_GRID, "min": max(v), "max": min(v)}),
    ),
    "features": st.one_of(
        _NOT_A_NUMBER, st.integers(), st.just([]),
        st.lists(st.one_of(st.text(max_size=5), st.integers(),
                           st.fixed_dictionaries({"name": st.integers(), "path": st.text(max_size=5)}),
                           st.fixed_dictionaries({"name": st.text(max_size=5)}),
                           _BAD_RATE.map(lambda r: {"name": "a", "path": "a.fmx", "sample_rate": r})),
                 min_size=1, max_size=3),
        st.lists(st.floats(0.1, 10), min_size=2, max_size=3, unique=True).map(  # rates differ
            lambda rates: [{"name": f"f{i}", "path": f"f{i}.fmx", "sample_rate": r}
                           for i, r in enumerate(rates)]),
        st.tuples(st.text(max_size=5), st.integers(2, 3)).map(  # one name repeated
            lambda nk: [{"name": nk[0], "path": f"f{i}.fmx"} for i in range(nk[1])]),
    ),
    "synth": st.one_of(
        _NOT_A_NUMBER,
        st.text(min_size=1, max_size=8).filter(lambda k: k not in _SYNTH_KEYS).map(lambda k: {k: 1}),
        st.sampled_from(sorted(_BAD_SYNTH_VALUES)).flatmap(
            lambda k: _BAD_SYNTH_VALUES[k].map(lambda v: {k: v})),
    ),
}


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(_BAD_RUN_VALUES)), data=st.data())
def test_run_bad_config_value_exit_2(key, data):
    value = data.draw(_BAD_RUN_VALUES[key], label=key)
    synth = {"preset": "replica", "n_subjects": 5, "n_targets": 5}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "run_out")
        cfg = {"out_dir": out_dir, "seed": 4, "synth": synth,
               key: {**synth, **value} if key == "synth" and isinstance(value, dict) else value}
        path = os.path.join(tmp, "config.json")
        Path(path).write_text(json.dumps(cfg))
        res = CliRunner().invoke(main, ["run", "--config", path])
        _assert_input_error(res)
        assert not os.path.exists(out_dir)


_NOT_A_LIST = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5))
_BAD_NAME = st.one_of(st.none(), st.booleans(), st.integers(), st.just(""),
                      st.lists(st.text(max_size=3), max_size=2))
_NOT_AN_INT = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3))


def _bad_records(*keys):
    """Lists of objects each missing one of ``keys`` or holding a bad value there."""
    good = {k: f"{k}.fmx" for k in keys}
    record = st.one_of(
        _NOT_A_LIST,
        st.sampled_from(keys).map(lambda k: {o: v for o, v in good.items() if o != k}),
        st.tuples(st.sampled_from(keys), _BAD_NAME).map(lambda kv: {**good, kv[0]: kv[1]}))
    return st.one_of(_NOT_A_LIST, st.lists(record, min_size=1, max_size=2))


#: Manifest values that are wrong by construction, per manifest key.
_BAD_MANIFEST_VALUES = {
    "subjects": _bad_records("id", "response"),
    "features": _bad_records("name", "path"),
    "blocks": st.one_of(_NOT_A_LIST, st.lists(st.one_of(
        _NOT_A_LIST,
        st.lists(st.integers(0, 60), max_size=4).filter(lambda b: len(b) != 2),
        st.tuples(st.integers(0, 60), _NOT_AN_INT).map(list),
        st.tuples(_NOT_AN_INT, st.integers(0, 60)).map(list)), min_size=1, max_size=2)),
    "rois": st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                      st.lists(st.integers(), max_size=2),
                      st.dictionaries(st.text(max_size=3), st.one_of(_NOT_A_LIST, st.lists(
                          _NOT_AN_INT, min_size=1, max_size=2)), min_size=1, max_size=2)),
    "n_rows": st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.lists(st.integers())),
    "n_targets": st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.lists(st.integers())),
}


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(sorted(_BAD_MANIFEST_VALUES)), data=st.data())
def test_bad_manifest_value_exit_2(score_inputs, key, data):
    doc = json.loads((score_inputs / "manifest.json").read_text())
    for record, field in [(s, "response") for s in doc["subjects"]] + [(f, "path") for f in doc["features"]]:
        record[field] = str(score_inputs / record[field])
    doc[key] = data.draw(_BAD_MANIFEST_VALUES[key], label=key)
    with tempfile.TemporaryDirectory() as tmp:
        manifest, config = os.path.join(tmp, "manifest.json"), os.path.join(tmp, "config.json")
        Path(manifest).write_text(json.dumps(doc))
        Path(config).write_text(json.dumps({"out_dir": os.path.join(tmp, "run_out"), "manifest": manifest}))
        res = CliRunner().invoke(main, ["score", "--features", str(score_inputs / "features.fmx"),
                                        "--response", str(score_inputs / "sub000.fmx"),
                                        "--manifest", manifest, "--out", os.path.join(tmp, "o.fmx")])
        _assert_input_error(res, manifest, f"manifest key '{key}'")
        res = CliRunner().invoke(main, ["run", "--config", config])
        _assert_input_error(res, manifest, f"manifest key '{key}'")
        assert sorted(os.listdir(tmp)) == ["config.json", "manifest.json"]


def test_lambda_grid_of_large_ints():
    grid = cli._grid_from({"lambda_grid": {"min": 10**30, "max": 10**31, "num": 3}})
    assert grid.tolist() == np.logspace(30.0, 31.0, 3).tolist()


def test_every_checked_key_has_a_bad_value_strategy():
    assert set(_BAD_RUN_VALUES) == set(cli._RUN)
    assert set(_BAD_GRID_VALUES) == set(cli._GRID)
    assert set(_BAD_SYNTH_VALUES) == {"preset", *synthbench.SYNTH_FIELDS} == _SYNTH_KEYS
    assert set(_BAD_MANIFEST_VALUES) == set(matrixio.MANIFEST)


def test_readme_names_every_checked_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1]
    keys = {*cli._RUN, *cli._GRID, "preset", *synthbench.SYNTH_FIELDS, *matrixio.MANIFEST}
    assert sorted(k for k in keys if f"`{k}`" not in cli_section) == []


def test_report_schema_validation():
    good = {"schema_version": report.REPORT_SCHEMA_VERSION, "stages": {}, "scores": {}, "contrasts": {}}
    assert report.validate_report(good) == []
    assert report.validate_report({"stages": {}}) != []


def test_bar_chart_svg_structure():
    svg = report.bar_chart_svg(["a", "b"], [0.5, -0.2], title="t")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<rect") == 2
