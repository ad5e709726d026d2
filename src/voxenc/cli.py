"""Command-line entry point chaining the whole pipeline.

Exit codes: 0 success, 1 computation error, 2 usage/input error.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn, TypeVar

import click
import numpy as np

from . import contrast as contrast_mod
from . import ctc as ctc_mod
from . import dsp, groupstats, hemo, matrixio, report, synthbench
from .encode import detrend_blocks, score_subjects

EXIT_COMPUTE = 1
EXIT_USAGE = 2
T = TypeVar("T")


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read(path: str | Path, reader: Callable[[str | Path], T], what: str | None = None) -> T:
    """``reader(path)``, or exit 2 naming ``path`` if it is missing, unreadable or malformed.

    A ValueError from ``reader`` means a malformed file: its message is shown
    as it is if ``what`` is None (the reader names the file), else after
    "malformed <what> <path>".
    """
    if not Path(path).exists():
        _fail(EXIT_USAGE, f"input file not found: {path}")
    try:
        return reader(path)
    except OSError as exc:  # a directory, or no permission
        _fail(EXIT_USAGE, f"cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc) if what is None
              else f"malformed {what} {path}: {type(exc).__name__}: {exc}")


def _load(path: str | Path) -> np.ndarray:
    return _read(path, matrixio.read_matrix)


def _out_path(ctx: click.Context, param: click.Parameter, value: str | None) -> str | None:
    """Refuse an output path that cannot be written before any work is done."""
    if value is not None and not Path(value).parent.is_dir():
        raise click.BadParameter(f"directory {Path(value).parent} does not exist")
    if value is not None and Path(value).is_dir():
        raise click.BadParameter(f"{value} is a directory")
    return value


def _dir_fault(path: Path) -> str | None:
    """Why ``path`` cannot be made a directory, or None: what exists at or above it is not one."""
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    return None if existing is None or existing.is_dir() else f"{existing} is not a directory"


def _out_dir(ctx: click.Context, param: click.Parameter, value: str) -> str:
    """Refuse an output directory path that cannot be made before any work is done."""
    fault = _dir_fault(Path(value))
    if fault is not None:
        raise click.BadParameter(fault)
    return value


def _finite_output(out: np.ndarray, what: str) -> np.ndarray:
    """``out``, or exit 1 before anything is written if the computation overflowed."""
    if not np.isfinite(out).all():
        _fail(EXIT_COMPUTE, f"{what} overflowed to a non-finite value")
    return out


@dataclass
class _Dataset:
    """A checked manifest with its feature files' column-stack X."""

    path: Path  # the manifest's
    manifest: dict  # as matrixio.read_manifest returns it
    X: np.ndarray
    ends: list[int]  # feature file i holds the columns of X up to ends[i]
    rows: dict[str, int]  # feature file -> row count
    detrend: bool


def _row_mismatch(rows: dict[str, int]) -> str:
    return ("feature and response files must have the same number of rows: "
            + ", ".join(f"{path} has {n}" for path, n in rows.items()))


def _load_2d(path: str | Path, kind: str, shape: str) -> np.ndarray:
    mat = _load(path)
    if mat.ndim != 2:
        _fail(EXIT_USAGE, f"{kind} file {path} must be a 2-D {shape} matrix, got shape {mat.shape}")
    return mat


def _read_response(path: str | Path, data: _Dataset) -> np.ndarray:
    """A 2-D response checked against ``data`` and detrended per block if ``data`` asks.

    It must be as tall as the feature files and have a target for every ROI
    index; then the blocks must end at the files' rows. A float64 response is
    detrended in place, a float32 one in its float64 copy: either way only
    the returned array outlives the call.
    """
    y = _load_2d(path, "response", "scans x targets")
    if y.shape[1] == 0:
        _fail(EXIT_USAGE, f"response file {path} has no targets: shape {y.shape}")
    n_rows = next(iter(data.rows.values()))
    if y.shape[0] != n_rows:
        _fail(EXIT_USAGE, _row_mismatch({**data.rows, str(path): y.shape[0]}))
    faults = matrixio.roi_faults(data.manifest["rois"], y.shape[1])
    if faults:
        _fail(EXIT_USAGE, f"response file {path} has {y.shape[1]} targets: " + "; ".join(faults))
    end = data.manifest["blocks"][-1][1]
    if n_rows != end:
        _fail(EXIT_USAGE, f"the blocks of {data.path} end at {end}, but the feature files "
                          f"have {n_rows} rows: {', '.join(data.rows)}")
    if data.detrend:
        y = np.asarray(y, dtype=np.float64)
        detrend_blocks(y, data.manifest["blocks"])
    return y


def _load_dataset(manifest_path: str | Path, feature_paths: list[str] | None, detrend: bool) -> _Dataset:
    """Read and check a manifest and column-stack its 2-D feature matrices.

    ``feature_paths`` default to the manifest's own, relative to its directory.
    Every problem exits 2 with a message naming the file, before anything is
    written; that the blocks end at the files' rows is checked with each
    response (``_read_response``), so a response whose rows disagree with the
    features is named first.
    """
    manifest_path = Path(manifest_path)
    manifest = _read(manifest_path, matrixio.read_manifest, "manifest")
    problems = matrixio.validate_manifest(manifest)
    blocks = manifest["blocks"]
    if len(blocks) < 3:
        problems.append(f"need >= 3 blocks for leave-one-block-out, got {len(blocks)}")
    if detrend:
        problems += [f"block ({a}, {b}) has {b - a} rows; need >= 3 to detrend"
                     for a, b in blocks if 0 < b - a < 3]
    if problems:
        _fail(EXIT_USAGE, f"manifest {manifest_path}: " + "; ".join(problems))
    if feature_paths is None:
        feature_paths = [str(manifest_path.parent / f["path"]) for f in manifest["features"]]
    if not feature_paths:
        _fail(EXIT_USAGE, f"manifest {manifest_path} lists no feature files")
    features = [_load_2d(path, "feature", "scans x features") for path in feature_paths]
    for path, mat in zip(feature_paths, features):
        if mat.shape[1] == 0:
            _fail(EXIT_USAGE, f"feature file {path} has no columns: shape {mat.shape}")
    rows = {path: mat.shape[0] for path, mat in zip(feature_paths, features)}
    if len(set(rows.values())) > 1:
        _fail(EXIT_USAGE, _row_mismatch(rows))
    ends = np.cumsum([mat.shape[1] for mat in features]).tolist()
    X = features[0] if len(features) == 1 else np.hstack(features)
    del features  # the column-stack is the one copy kept
    return _Dataset(manifest_path, manifest, X, ends, rows, detrend)


@click.group()
def main() -> None:
    """Model-to-brain encoding toolkit."""


@main.command()
@click.option("--wav", "wav_path", required=True, help="input WAV file")
@click.option("--kind", type=click.Choice(["spectrogram", "mel"]), default="spectrogram")
@click.option("--out", "out_path", required=True, callback=_out_path)
@click.option("--n-mels", type=click.IntRange(min=1), default=80, show_default=True)
@click.option("--mel-variant", type=click.Choice(dsp.MEL_VARIANTS), default=dsp.MEL_VARIANTS[0])
def featurize(wav_path: str, kind: str, out_path: str, n_mels: int, mel_variant: str) -> None:
    """Extract spectrogram or mel-filterbank features from audio."""
    audio, rate = _read(wav_path, dsp.read_wav)
    try:
        # rebinding frees the input-rate signal as soon as the 16 kHz one exists
        audio = dsp.resample_to_mono_16k(audio, rate)
        if kind == "spectrogram":
            feats = dsp.power_spectrogram(audio)
        else:
            feats = dsp.mel_filterbank(audio, n_mels, mel_variant)
    except ValueError as exc:  # the audio's rate, length or samples
        _fail(EXIT_USAGE, f"WAV file {wav_path}: {exc}")
    matrixio.write_matrix(out_path, _finite_output(feats, f"{kind} of {wav_path}"))
    click.echo(f"wrote {feats.shape[0]}x{feats.shape[1]} {kind} to {out_path}")


def _finite_option(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """Reject inf and NaN, which pass click's range checks."""
    if not matrixio.finite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@main.command("hrf-convolve")
@click.option("--in", "in_path", required=True)
@click.option("--out", "out_path", required=True, callback=_out_path)
@click.option("--input-rate", type=click.FloatRange(min=hemo.MIN_OVERSAMPLE_HZ), default=50.0,
              show_default=True, callback=_finite_option)
@click.option("--tr", type=click.FloatRange(min=0, min_open=True), default=2.0, show_default=True,
              callback=_finite_option)
@click.option("--n-scans", type=click.IntRange(min=0), required=True)
@click.option("--normalize/--no-normalize", default=True, show_default=True)
def hrf_convolve(in_path: str, out_path: str, input_rate: float, tr: float, n_scans: int, normalize: bool) -> None:
    """Normalize activations, convolve with the HRF, downsample to TR."""
    data = _load(in_path)
    if data.ndim != 2 or data.size == 0:
        _fail(EXIT_USAGE, f"input file {in_path} must be a non-empty 2-D time x features "
                          f"matrix, got shape {data.shape}")
    if not 1.0 / tr < input_rate:
        _fail(EXIT_USAGE, f"'--tr' {tr:g} s samples at {1.0 / tr:g} Hz, which must be below "
                          f"'--input-rate' {input_rate:g} Hz")
    try:
        hemo.scan_index(data.shape[0], input_rate, n_scans, tr)
    except ValueError as exc:
        _fail(EXIT_USAGE, f"'--n-scans' {n_scans} reaches past {in_path}: {exc}")
    try:
        out = hemo.hrf_align(data, input_rate, n_scans, tr, normalize=normalize)
    except ValueError as exc:
        _fail(EXIT_COMPUTE, str(exc))
    matrixio.write_matrix(out_path, _finite_output(out, f"HRF alignment of {in_path}"))
    click.echo(f"wrote {out.shape[0]}x{out.shape[1]} aligned features to {out_path}")


@main.command()
@click.option("--features", required=True, help="comma-separated feature files, column-concatenated")
@click.option("--response", "response_path", required=True)
@click.option("--manifest", "manifest_path", required=True)
@click.option("--out", "out_path", required=True, callback=_out_path, help="per-target mean R (FMX1)")
@click.option("--report", "report_path", default=None, callback=_out_path)
@click.option("--detrend/--no-detrend", default=True, show_default=True)
def score(features: str, response_path: str, manifest_path: str, out_path: str,
          report_path: str | None, detrend: bool) -> None:
    """Cross-validated ridge brain scores per target."""
    if report_path is not None and Path(report_path).resolve() == Path(out_path).resolve():
        _fail(EXIT_USAGE, f"'--out' and '--report' name the same file: {out_path}, {report_path}")
    data = _load_dataset(manifest_path, features.split(","), detrend)
    timings: dict[str, float] = {}
    with report.timed(timings, "score"):
        Y = _read_response(response_path, data)
        try:
            r_mean = score_subjects(data.X, [Y], 1, data.manifest["blocks"], [slice(None)])[0, 0]
        except ValueError as exc:
            _fail(EXIT_COMPUTE, str(exc))
    matrixio.write_matrix(out_path, r_mean)
    if report_path:
        report.write_report(report_path, timings, r_mean, data.manifest["rois"])
    click.echo(f"mean R = {r_mean.mean():.4f} over {r_mean.size} targets")


@main.command("contrast")
@click.option("--a", "a_path", required=True)
@click.option("--b", "b_path", required=True)
@click.option("--out", "out_path", required=True, callback=_out_path)
def contrast_cmd(a_path: str, b_path: str, out_path: str) -> None:
    """Elementwise delta-R between two score files (a minus b)."""
    a, b = _load(a_path), _load(b_path)
    for path, scores in ((a_path, a), (b_path, b)):
        if scores.size == 0:
            _fail(EXIT_USAGE, f"score file {path} has no targets: shape {scores.shape}")
    try:
        delta = contrast_mod.delta_vs_baseline(a, b)
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
    matrixio.write_matrix(out_path, delta)
    click.echo(f"mean delta R = {delta.mean():.4f}")


@main.command("group-stats")
@click.option("--in", "in_path", required=True, help="subjects x targets matrix")
@click.option("--alternative", type=click.Choice(groupstats.ALTERNATIVES), default="greater")
@click.option("--q", default=0.05, show_default=True)
@click.option("--rois", "rois_path", default=None, help="manifest JSON with ROI lists")
@click.option("--out", "out_path", required=True, callback=_out_path)
def group_stats(in_path: str, alternative: str, q: float, rois_path: str | None, out_path: str) -> None:
    """Wilcoxon across subjects per target, BH-FDR across targets."""
    try:
        _RUN["q"].check(q, "--q")
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
    values = _load_2d(in_path, "input", "subjects x targets")
    if values.shape[1] == 0:
        _fail(EXIT_USAGE, f"input file {in_path} has no targets: shape {values.shape}")
    rois = _read(rois_path, matrixio.read_manifest, "manifest")["rois"] if rois_path else None
    try:  # every error group_test raises here describes the input
        stats = groupstats.group_test(values, alternative, q)
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
    doc = {
        "q": q,
        "alternative": alternative,
        "n_subjects": int(values.shape[0]),
        "n_targets": int(values.shape[1]),
        "n_significant": int(stats.significant.sum()),
        "p_raw": [None if np.isnan(p) else float(p) for p in stats.p_raw],
        "significant": stats.significant.tolist(),
    }
    if rois is not None:
        mean_vals = values.mean(axis=0)
        try:
            doc["roi_means"] = {name: groupstats.roi_mean(mean_vals, idx) for name, idx in rois.items()}
        except ValueError as exc:
            _fail(EXIT_USAGE, f"ROI manifest {rois_path}: {exc}")
    matrixio.write_json(out_path, doc)
    click.echo(f"{doc['n_significant']}/{doc['n_targets']} targets significant at q={q}")


@main.command("ctc-eval")
@click.option("--logprobs", "logprobs_path", required=True)
@click.option("--targets", "targets_path", required=True, help="UTF-8 space-separated label indices")
def ctc_eval(logprobs_path: str, targets_path: str) -> None:
    """Print CTC log-likelihood and the greedy decode."""
    lp = _load(logprobs_path)
    targets = _read(targets_path, lambda p: [int(t) for t in Path(p).read_text(encoding="utf-8").split()],
                    "targets file")
    try:
        inst = ctc_mod.CtcInstance(lp, targets)
    except ValueError as exc:
        _fail(EXIT_USAGE, f"log-probs {logprobs_path} with targets {targets_path}: {exc}")
    ll = ctc_mod.ctc_log_likelihood(inst)
    decoded = ctc_mod.ctc_greedy_decode(lp)
    click.echo(f"log_likelihood = {ll:.10g}")
    click.echo("decoded = " + " ".join(map(str, decoded)))


@main.command()
@click.option("--preset", type=click.Choice(synthbench.PRESETS), required=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, callback=_out_dir)
@click.option("--n-subjects", default=None, type=int)
@click.option("--n-targets", default=None, type=int)
@click.option("--n-scans", default=None, type=int)
def synth(preset: str, seed: int, out_dir: str, n_subjects: int | None,
          n_targets: int | None, n_scans: int | None) -> None:
    """Generate a synthetic dataset plus manifest into a directory."""
    if n_subjects is None and preset != "linear":
        n_subjects = 20
    sizes = {"n_subjects": n_subjects, "n_targets": n_targets, "n_scans": n_scans}
    try:
        cfg = synthbench.SynthConfig(seed=seed, **{k: v for k, v in sizes.items() if v is not None})
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_synth_dataset(out, synthbench.build_cohort(preset, cfg))
    click.echo(f"wrote {preset} dataset to {out}")


def _write_synth_dataset(out: Path, cohort: synthbench.Cohort) -> None:
    """Write the cohort's features, one response file per subject, and the manifest."""
    cfg = cohort.cfg
    features = []
    for name, x in zip(cohort.names, cohort.features):
        path = "features.fmx" if name == "synth" else f"features{name.removeprefix('model')}.fmx"
        matrixio.write_matrix(out / path, x)
        features.append({"name": name, "path": path, "sample_rate": 1.0 / cfg.tr_seconds})
    subjects = []
    for i, (y, _) in enumerate(cohort.subjects()):
        sub = f"sub{i:03d}"
        matrixio.write_matrix(out / f"{sub}.fmx", y)
        subjects.append({"id": sub, "response": f"{sub}.fmx"})
    matrixio.write_json(out / "manifest.json", {
        "subjects": subjects,
        "features": features,
        "blocks": synthbench.even_blocks(cfg.n_scans, cfg.n_blocks),
        "rois": {"all": list(range(cfg.n_targets))},
        "n_rows": cfg.n_scans,
        "n_targets": cfg.n_targets,
    })


#: The run config's keys, each with its check and any default; other keys are refused.
_RUN = {
    "out_dir": matrixio.Check(matrixio.nonempty_path, "a non-empty path string"),
    "manifest": matrixio.Check(matrixio.nonempty_path, "a non-empty path string"),
    "lambda_grid": matrixio.Check(lambda g: isinstance(g, dict) and set(g) == {"min", "max", "num"},
                                  "an object with exactly the keys min, max and num",
                                  {"min": 10.0, "max": 1e8, "num": 20}),
    "alternative": matrixio.Check(lambda a: a in groupstats.ALTERNATIVES,
                                  f"one of {', '.join(groupstats.ALTERNATIVES)}", "greater"),
    "q": matrixio.Check(matrixio.fdr_level, "a number in (0, 1]", 0.05),
    "detrend": matrixio.Check(lambda d: isinstance(d, bool), "true or false", True),
    "seed": matrixio.Check(matrixio.is_int, "an integer", 0),
    "features": matrixio.Check(
        lambda fs: isinstance(fs, list) and fs != [],
        "a non-empty list of objects with string name and path and an optional positive sample_rate",
        each=matrixio.Check(lambda f: isinstance(f, dict) and set(f) <= {"name", "path", "sample_rate"}
                            and isinstance(f.get("name"), str) and isinstance(f.get("path"), str)
                            and matrixio.positive_rate(f.get("sample_rate", 1.0)))),
    "synth": matrixio.Check(lambda b: isinstance(b, dict), "an object"),
}
_GRID = {
    "min": matrixio.Check(matrixio.finite, "a finite number"),
    "max": matrixio.Check(matrixio.finite, "a finite number"),
    "num": matrixio.Check(lambda n: matrixio.is_int(n) and n >= 1, "an integer >= 1"),
}
_PRESET = matrixio.Check(lambda p: p in synthbench.PRESETS, f"one of {', '.join(synthbench.PRESETS)}",
                         "replica")


def _resolve_run_config(doc: object) -> dict:
    cfg = matrixio.check_fields(doc, _RUN, "config key '{}'")
    unknown = set(doc) - set(_RUN)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "out_dir" not in cfg:
        raise ValueError("config requires out_dir")
    if "synth" not in cfg and "manifest" not in cfg:
        raise ValueError("config needs a 'synth' block or a 'manifest' path")
    grid = matrixio.check_fields(cfg["lambda_grid"], _GRID, "config key 'lambda_grid.{}'")
    if not 0 < grid["min"] < grid["max"]:
        raise ValueError(f"config key 'lambda_grid' needs 0 < min < max, "
                         f"got min={grid['min']!r}, max={grid['max']!r}")
    features = cfg.get("features", [])
    names = [f["name"] for f in features]
    if len(set(names)) < len(names):
        raise ValueError(f"config key 'features' must have distinct names: a run's report keys "
                         f"its levels by name, got {names!r}")
    rates = [f.get("sample_rate", 1.0) for f in features]
    if len(set(rates)) > 1:
        raise ValueError(f"config key 'features' must share one sample_rate: equal row counts at "
                         f"different rates cannot be aligned, got {rates!r}")
    if "synth" in cfg:
        _synth_config(cfg)
    return cfg


def _synth_config(cfg: dict) -> tuple[str, synthbench.SynthConfig]:
    """The preset and generator config of a run config's synth block."""
    params = {"seed": cfg["seed"], **cfg["synth"]}
    preset = _PRESET.check(params.pop("preset", _PRESET.default), "config key 'synth.preset'")
    unknown = set(params) - set(synthbench.SYNTH_FIELDS)
    if unknown:
        raise ValueError(f"unknown config keys in 'synth': {sorted(unknown)}")
    try:  # TypeError: a non-number snr
        return preset, synthbench.SynthConfig(**params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key 'synth': {exc}") from None


def _grid_from(cfg: dict) -> np.ndarray:
    g = cfg["lambda_grid"]
    return np.logspace(np.log10(float(g["min"])), np.log10(float(g["max"])), g["num"])


@main.command()
@click.option("--config", "config_path", required=True, help="JSON run configuration")
def run(config_path: str) -> None:
    """Run the full pipeline from a JSON config; writes reports and SVG bars."""
    doc = _read(config_path, lambda p: json.loads(Path(p).read_text(encoding="utf-8")), "config")
    try:
        cfg = _resolve_run_config(doc)
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
    out_dir = Path(cfg["out_dir"])
    fault = _dir_fault(out_dir)
    if fault is not None:
        _fail(EXIT_USAGE, f"config key 'out_dir': {fault}")
    made_out_dir = not out_dir.exists()
    written: list[Path] = []
    try:
        _run_pipeline(cfg, out_dir, written)
    except (Exception, SystemExit) as exc:  # SystemExit: an input error found by a loader
        for p in written:
            p.unlink(missing_ok=True)
        if made_out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        if isinstance(exc, SystemExit):
            raise
        _fail(EXIT_COMPUTE, f"run failed: {type(exc).__name__}: {exc}")
    click.echo(f"pipeline complete; report at {out_dir / 'report.json'}")


def _run_pipeline(cfg: dict, out_dir: Path, written: list[Path]) -> None:
    timings: dict[str, float] = {}
    grid = _grid_from(cfg)

    with report.timed(timings, "synth"):
        if "synth" in cfg:
            manifest_path = out_dir / "data" / "manifest.json"
            manifest_path.parent.mkdir(parents=True, exist_ok=True)
            _write_synth_dataset(manifest_path.parent, synthbench.build_cohort(*_synth_config(cfg)))
            written.extend(manifest_path.parent.iterdir())
        else:
            manifest_path = Path(cfg["manifest"])

    features = cfg.get("features")
    data = _load_dataset(manifest_path, features and [f["path"] for f in features], cfg["detrend"])
    manifest = data.manifest
    names = [f["name"] for f in (features or manifest["features"])]
    if not manifest["subjects"]:
        _fail(EXIT_USAGE, f"manifest {manifest_path} lists no subjects")
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = out_dir / "resolved_config.json"
    matrixio.write_json(snapshot, cfg)
    written.append(snapshot)

    # levels x subjects x targets: every concatenation level, a column prefix of X, for
    # every subject, whose response is read and detrended as it is scored
    with report.timed(timings, "score"):
        responses = (_read_response(manifest_path.parent / sub["response"], data)
                     for sub in manifest["subjects"])
        scores = score_subjects(data.X, responses, len(manifest["subjects"]), manifest["blocks"],
                                [slice(end) for end in data.ends], grid)
    n_levels = len(names)

    # contrasts: per-level deltas relative to the previous level
    contrasts: dict[str, dict] = {}
    level_deltas: list[float] = []
    group_block = {}
    with report.timed(timings, "contrast"):
        if n_levels >= 2:
            # subjects x (levels-1) x targets: a contiguous level delta would sum in another
            # order; freed before the group test's working set is taken
            deltas = contrast_mod.delta_layerwise(scores)
            level_deltas = [float(deltas[:, L - 1].mean()) for L in range(1, n_levels)]
            del deltas
            for L, delta in enumerate(level_deltas, start=1):
                contrasts[f"{names[L]}_vs_{names[L - 1]}"] = {"mean_delta_r": delta, "per_level_index": L}
            if len(manifest["subjects"]) >= 5:
                top_delta = contrast_mod.delta_vs_baseline(scores[-1], scores[0])
                stats = groupstats.group_test(top_delta, cfg["alternative"], cfg["q"])
                group_block = {
                    "contrast": f"{names[-1]}_vs_{names[0]}",
                    "n_significant": int(stats.significant.sum()),
                    "n_targets": int(stats.significant.size),
                    "positive_mean_delta": float(top_delta.mean()),
                }
                matrixio.write_matrix(out_dir / "group_delta.fmx", top_delta)
                written.append(out_dir / "group_delta.fmx")

    mean_scores_per_level = [float(level.mean()) for level in scores]
    charts = {"scores_per_level.svg": report.bar_chart_svg(
        names, mean_scores_per_level, title="mean brain score per concatenation level")}
    if n_levels >= 2:
        charts["delta_per_level.svg"] = report.bar_chart_svg(
            [f"L{L}" for L in range(1, n_levels)], level_deltas, title="mean delta R per level")
    for chart, svg in charts.items():
        (out_dir / chart).write_text(svg, encoding="utf-8")
        written.append(out_dir / chart)

    report.write_report(out_dir / "report.json", timings, scores[-1].mean(axis=0), manifest["rois"],
                        levels=dict(zip(names, mean_scores_per_level)), contrasts=contrasts,
                        group=group_block, config_snapshot=snapshot.name)
    written.append(out_dir / "report.json")

if __name__ == "__main__":
    main()
