import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import voxenc
from voxenc import groupstats, matrixio, report, synthbench
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
    y = matrixio.read_matrix(out / manifest.subjects[0].response_path)
    assert feats.shape[0] == y.shape[0]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("preset", synthbench.PRESETS)
def test_synth_files_equal_cohort(runner, tmp_path, preset):
    out = _synth_dir(runner, tmp_path, preset, ["--n-subjects", "3", "--n-targets", "7"])
    cfg = synthbench.SynthConfig(seed=3, n_subjects=3, n_targets=7)
    cohort = synthbench.build_cohort(preset, cfg)
    manifest = matrixio.read_manifest(out / "manifest.json")
    assert [f.name for f in manifest.features] == cohort.names
    for record, feats in zip(manifest.features, cohort.features):
        assert _same_bits(matrixio.read_matrix(out / record.path), feats)
    responses = [y for y, _ in cohort.subjects()]
    assert len(manifest.subjects) == len(responses) == 3
    for record, y in zip(manifest.subjects, responses):
        assert _same_bits(matrixio.read_matrix(out / record.response_path), y)


def test_null_files_score_like_gen_null_cohort(runner, tmp_path):
    out = _synth_dir(runner, tmp_path, "null", ["--n-subjects", "3", "--n-targets", "7"])
    expected = synthbench.gen_null_cohort(synthbench.SynthConfig(seed=3, n_subjects=3, n_targets=7))
    manifest = matrixio.read_manifest(out / "manifest.json")
    X = matrixio.read_matrix(out / "features.fmx")
    for i, record in enumerate(manifest.subjects):
        r = brain_score(X, matrixio.read_matrix(out / record.response_path), manifest.blocks,
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


def test_import_loads_no_scipy():
    src = str(Path(voxenc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, voxenc.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
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
])
def test_featurize_bad_wav_exit_2(runner, tmp_path, case, needle):
    wav = tmp_path / f"{case}.wav"
    if case == "not_riff":
        wav.write_text("hello, this is not audio\n")
    elif case == "pcm8":
        _write_pcm16(wav, np.arange(4000, dtype=np.uint8), sampwidth=1)
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
                                      "feature_rates", "feature_names", "blocks_end"])
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
                      st.just(float("inf")))
_GRID = {"min": 10.0, "max": 1e8, "num": 20}
_SYNTH_INTS = ["n_time_activation", "n_scans", "n_features", "n_targets", "n_subjects", "n_blocks"]
_SYNTH_KEYS = {"preset", *(f.name for f in fields(synthbench.SynthConfig))}

#: Config values that are wrong by construction, per run config key.
_BAD_RUN_VALUES = {
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
        st.tuples(st.sampled_from(["min", "max"]), _BAD_RATE).map(lambda kv: {**_GRID, kv[0]: kv[1]}),
        st.one_of(_NOT_A_NUMBER, st.integers(max_value=0), st.floats()).map(
            lambda num: {**_GRID, "num": num}),
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
        st.one_of(_NOT_A_NUMBER, st.integers()).filter(lambda p: p not in synthbench.PRESETS).map(
            lambda p: {"preset": p}),
        st.tuples(st.sampled_from(_SYNTH_INTS),
                  st.one_of(_NOT_A_NUMBER, st.floats(), st.integers(max_value=0))).map(
            lambda kv: {kv[0]: kv[1]}),
        st.one_of(_NOT_A_NUMBER, st.floats()).map(lambda v: {"seed": v}),
        st.one_of(st.booleans(), st.text(max_size=5), st.floats(max_value=0, exclude_max=True),
                  st.just(float("nan"))).map(lambda v: {"snr": v}),
        st.tuples(st.sampled_from(["activation_rate", "tr_seconds"]), _BAD_RATE).map(
            lambda kv: {kv[0]: kv[1]}),
        st.floats(0, 10, exclude_max=True).map(lambda v: {"activation_rate": v}),
        st.floats(0, 1 / 50).map(lambda v: {"tr_seconds": v}),  # scans at or above 50 Hz
    ),
}


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(_BAD_RUN_VALUES)), data=st.data())
def test_run_bad_config_value_exit_2(key, data):
    value = data.draw(_BAD_RUN_VALUES[key], label=key)
    synth = {"preset": "replica", "n_subjects": 5, "n_targets": 5}
    cfg = {"seed": 4, "synth": synth,
           key: {**synth, **value} if key == "synth" and isinstance(value, dict) else value}
    with tempfile.TemporaryDirectory() as tmp:
        cfg["out_dir"] = os.path.join(tmp, "run_out")
        path = os.path.join(tmp, "config.json")
        Path(path).write_text(json.dumps(cfg))
        res = CliRunner().invoke(main, ["run", "--config", path])
        _assert_input_error(res)
        assert not os.path.exists(cfg["out_dir"])


def test_report_schema_validation():
    good = {"schema_version": report.REPORT_SCHEMA_VERSION, "stages": {}, "scores": {}, "contrasts": {}}
    assert report.validate_report(good) == []
    assert report.validate_report({"stages": {}}) != []


def test_write_report_refuses_invalid_doc(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match=r"missing keys: \['scores'\]"):
        report.write_report(path, {"stages": {}, "contrasts": {}})
    assert not path.exists()
    report.write_report(path, {"stages": {}, "scores": {}, "contrasts": {}})
    assert report.validate_report(json.loads(path.read_text())) == []


def test_bar_chart_svg_structure():
    svg = report.bar_chart_svg(["a", "b"], [0.5, -0.2], title="t")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<rect") == 2
