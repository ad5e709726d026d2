"""Command-line entry point chaining the whole pipeline.

Exit codes: 0 success, 1 computation error, 2 usage/input error.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from . import contrast as contrast_mod
from . import ctc as ctc_mod
from . import dsp, groupstats, hemo, matrixio, report, synthbench
from .encode import brain_score, detrend_blocks

EXIT_COMPUTE = 1
EXIT_USAGE = 2


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str) -> np.ndarray:
    p = Path(path)
    if not p.exists():
        _fail(EXIT_USAGE, f"input file not found: {p}")
    try:
        return matrixio.read_matrix(p)
    except matrixio.MatrixParseError as exc:
        _fail(EXIT_USAGE, str(exc))


def _finite_output(out: np.ndarray, what: str) -> np.ndarray:
    """``out``, or exit 1 before anything is written if the computation overflowed."""
    if not np.isfinite(out).all():
        _fail(EXIT_COMPUTE, f"{what} overflowed to a non-finite value")
    return out


def _load_manifest(path: str | Path) -> matrixio.DatasetManifest:
    if not Path(path).exists():
        _fail(EXIT_USAGE, f"input file not found: {path}")
    try:
        return matrixio.read_manifest(path)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:  # JSON or field layout
        _fail(EXIT_USAGE, f"malformed manifest {path}: {type(exc).__name__}: {exc}")


@dataclass
class _Dataset:
    """A checked manifest with its feature files' column-stack X."""

    manifest: matrixio.DatasetManifest
    X: np.ndarray
    ends: list[int]  # feature file i holds the columns of X up to ends[i]
    rows: dict[str, int]  # feature file -> row count
    detrend: bool


def _row_mismatch(rows: dict[str, int]) -> str:
    return ("feature and response files must have the same number of rows: "
            + ", ".join(f"{path} has {n}" for path, n in rows.items()))


def _load_2d(path: str | Path, kind: str, columns: str) -> np.ndarray:
    mat = _load(path)
    if mat.ndim != 2:
        _fail(EXIT_USAGE, f"{kind} file {path} must be a 2-D scans x {columns} "
                          f"matrix, got shape {mat.shape}")
    return mat


def _read_response(path: str | Path, rows: dict[str, int]) -> np.ndarray:
    """A 2-D response with as many rows as the feature files in ``rows``."""
    y = _load_2d(path, "response", "targets")
    if y.shape[0] != next(iter(rows.values())):
        _fail(EXIT_USAGE, _row_mismatch({**rows, str(path): y.shape[0]}))
    return y


def _load_dataset(manifest_path: str | Path, feature_paths: list[str] | None, detrend: bool,
                  response_path: str | None = None) -> tuple[_Dataset, np.ndarray | None]:
    """Read and check a manifest, column-stack its 2-D feature matrices and read ``response_path``.

    ``feature_paths`` default to the manifest's own, relative to its directory.
    ``score``'s one response is row-checked against the features before the
    blocks are, and returned detrended if asked (None without a path). Every
    problem exits 2 with a message naming the file, before anything is written.
    """
    manifest_path = Path(manifest_path)
    manifest = _load_manifest(manifest_path)
    problems = matrixio.validate_manifest(manifest)
    if len(manifest.blocks) < 3:
        problems.append(f"need >= 3 blocks for leave-one-block-out, got {len(manifest.blocks)}")
    if detrend:
        problems += [f"block ({a}, {b}) has {b - a} rows; need >= 3 to detrend"
                     for a, b in manifest.blocks if 0 < b - a < 3]
    if problems:
        _fail(EXIT_USAGE, f"manifest {manifest_path}: " + "; ".join(problems))
    if feature_paths is None:
        feature_paths = [str(manifest_path.parent / f.path) for f in manifest.features]
    if not feature_paths:
        _fail(EXIT_USAGE, f"manifest {manifest_path} lists no feature files")
    features = [_load_2d(path, "feature", "features") for path in feature_paths]
    rows = {path: mat.shape[0] for path, mat in zip(feature_paths, features)}
    if len(set(rows.values())) > 1:
        _fail(EXIT_USAGE, _row_mismatch(rows))
    ends = np.cumsum([mat.shape[1] for mat in features]).tolist()
    X = features[0] if len(features) == 1 else np.hstack(features)
    del features  # the column-stack is the one copy kept
    y = None if response_path is None else _read_response(response_path, rows)
    end = manifest.blocks[-1][1]
    if X.shape[0] != end:
        _fail(EXIT_USAGE, f"the blocks of {manifest_path} end at {end}, but the feature files "
                          f"have {X.shape[0]} rows: {', '.join(feature_paths)}")
    data = _Dataset(manifest, X, ends, rows, detrend)
    return data, None if y is None else _detrended(data, y)


def _detrended(data: _Dataset, y: np.ndarray) -> np.ndarray:
    """``y`` detrended per block if ``data`` asks, else ``y`` as it is.

    A float64 response is detrended in place; a float32 one is detrended in
    its float64 copy. Either way only the returned array outlives the call.
    """
    if data.detrend:
        y = np.asarray(y, dtype=np.float64)
        detrend_blocks(y, data.manifest.blocks)
    return y


@click.group()
def main() -> None:
    """Model-to-brain encoding toolkit."""


@main.command()
@click.option("--wav", "wav_path", required=True, help="input WAV file")
@click.option("--kind", type=click.Choice(["spectrogram", "mel"]), default="spectrogram")
@click.option("--out", "out_path", required=True)
@click.option("--n-mels", type=click.IntRange(min=1), default=80, show_default=True)
@click.option("--mel-variant", type=click.Choice(dsp.MEL_VARIANTS), default=dsp.MEL_VARIANTS[0])
def featurize(wav_path: str, kind: str, out_path: str, n_mels: int, mel_variant: str) -> None:
    """Extract spectrogram or mel-filterbank features from audio."""
    if not Path(wav_path).exists():
        _fail(EXIT_USAGE, f"input file not found: {wav_path}")
    try:
        audio, rate = dsp.read_wav(wav_path)
    except dsp.WavError as exc:
        _fail(EXIT_USAGE, str(exc))
    try:
        # rebinding frees the input-rate signal as soon as the 16 kHz one exists
        audio = dsp.resample_to_mono_16k(audio, rate)
        if kind == "spectrogram":
            feats = dsp.power_spectrogram(audio)
        else:
            feats = dsp.mel_filterbank(audio, n_mels, mel_variant)
    except ValueError as exc:
        _fail(EXIT_COMPUTE, str(exc))
    matrixio.write_matrix(out_path, _finite_output(feats, f"{kind} of {wav_path}"))
    click.echo(f"wrote {feats.shape[0]}x{feats.shape[1]} {kind} to {out_path}")


def _finite_option(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """Reject inf and NaN, which pass click's range checks."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@main.command("hrf-convolve")
@click.option("--in", "in_path", required=True)
@click.option("--out", "out_path", required=True)
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
@click.option("--out", "out_path", required=True, help="per-target mean R (FMX1)")
@click.option("--report", "report_path", default=None)
@click.option("--detrend/--no-detrend", default=True, show_default=True)
def score(features: str, response_path: str, manifest_path: str, out_path: str,
          report_path: str | None, detrend: bool) -> None:
    """Cross-validated ridge brain scores per target."""
    data, Y = _load_dataset(manifest_path, features.split(","), detrend, response_path)
    try:
        sm, = brain_score(data.X, Y, data.manifest.blocks, [slice(None)])
    except ValueError as exc:
        _fail(EXIT_COMPUTE, str(exc))
    matrixio.write_matrix(out_path, sm.r_mean)
    if report_path:
        report.write_report(
            report_path,
            {
                "stages": {"score": {"n_folds": len(data.manifest.blocks), "n_targets": sm.n_targets}},
                "scores": report.summarize_scores(sm.r_mean, data.manifest.rois or None),
                "contrasts": {},
            },
        )
    click.echo(f"mean R = {sm.r_mean.mean():.4f} over {sm.n_targets} targets")


@main.command("contrast")
@click.option("--a", "a_path", required=True)
@click.option("--b", "b_path", required=True)
@click.option("--out", "out_path", required=True)
def contrast_cmd(a_path: str, b_path: str, out_path: str) -> None:
    """Elementwise delta-R between two score files (a minus b)."""
    try:
        delta = contrast_mod.delta_vs_baseline(_load(a_path), _load(b_path))
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
    matrixio.write_matrix(out_path, delta)
    click.echo(f"mean delta R = {delta.mean():.4f}")


@main.command("group-stats")
@click.option("--in", "in_path", required=True, help="subjects x targets matrix")
@click.option("--alternative", type=click.Choice(groupstats.ALTERNATIVES), default="greater")
@click.option("--q", default=0.05, show_default=True)
@click.option("--rois", "rois_path", default=None, help="manifest JSON with ROI lists")
@click.option("--out", "out_path", required=True)
def group_stats(in_path: str, alternative: str, q: float, rois_path: str | None, out_path: str) -> None:
    """Wilcoxon across subjects per target, BH-FDR across targets."""
    try:
        _check_q(q, "--q")
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
    values = _load(in_path)
    rois = _load_manifest(rois_path).rois if rois_path else None
    try:
        stats = groupstats.group_test(values, alternative, q)
    except ValueError as exc:
        _fail(EXIT_COMPUTE, str(exc))
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
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"{doc['n_significant']}/{doc['n_targets']} targets significant at q={q}")


@main.command("ctc-eval")
@click.option("--logprobs", "logprobs_path", required=True)
@click.option("--targets", "targets_path", required=True, help="UTF-8 space-separated label indices")
def ctc_eval(logprobs_path: str, targets_path: str) -> None:
    """Print CTC log-likelihood and the greedy decode."""
    lp = _load(logprobs_path)
    if not Path(targets_path).exists():
        _fail(EXIT_USAGE, f"input file not found: {targets_path}")
    text = Path(targets_path).read_text(encoding="utf-8").split()
    try:
        targets = [int(t) for t in text]
        inst = ctc_mod.CtcInstance(lp, targets)
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
    ll = ctc_mod.ctc_log_likelihood(inst)
    decoded = ctc_mod.ctc_greedy_decode(lp)
    click.echo(f"log_likelihood = {ll:.10g}")
    click.echo("decoded = " + " ".join(map(str, decoded)))


@main.command()
@click.option("--preset", type=click.Choice(synthbench.PRESETS), required=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True)
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
        features.append(matrixio.FeatureRecord(name, path, 1.0 / cfg.tr_seconds))
    subjects = []
    for i, (y, _) in enumerate(cohort.subjects()):
        sub = f"sub{i:03d}"
        matrixio.write_matrix(out / f"{sub}.fmx", y)
        subjects.append(matrixio.SubjectRecord(sub, f"{sub}.fmx"))
    manifest = matrixio.DatasetManifest(
        subjects=subjects,
        features=features,
        blocks=synthbench.even_blocks(cfg.n_scans, cfg.n_blocks),
        rois={"all": list(range(cfg.n_targets))},
        n_rows=cfg.n_scans,
        n_targets=cfg.n_targets,
    )
    matrixio.write_manifest(out / "manifest.json", manifest)


_RUN_KEYS = {
    "out_dir", "seed", "synth", "features", "manifest",
    "lambda_grid", "q", "alternative", "detrend",
}


def _resolve_run_config(doc: dict) -> dict:
    unknown = set(doc) - _RUN_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "out_dir" not in doc:
        raise ValueError("config requires out_dir")
    if "synth" not in doc and "manifest" not in doc:
        raise ValueError("config needs a 'synth' block or a 'manifest' path")
    for key in ("out_dir", "manifest"):
        if key in doc and (not isinstance(doc[key], str) or not doc[key]):
            raise ValueError(f"config key '{key}' must be a non-empty path string, got {doc[key]!r}")
    resolved = {
        "seed": 0,
        "q": 0.05,
        "alternative": "greater",
        "detrend": True,
        "lambda_grid": {"min": 10.0, "max": 1e8, "num": 20},
        **doc,
    }
    _check_lambda_grid(resolved["lambda_grid"])
    if resolved["alternative"] not in groupstats.ALTERNATIVES:
        raise ValueError(f"config key 'alternative' must be one of {', '.join(groupstats.ALTERNATIVES)}, "
                         f"got {resolved['alternative']!r}")
    _check_q(resolved["q"], "config key 'q'")
    if not isinstance(resolved["detrend"], bool):
        raise ValueError(f"config key 'detrend' must be true or false, got {resolved['detrend']!r}")
    seed = resolved["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"config key 'seed' must be an integer, got {seed!r}")
    if "features" in resolved:
        _check_features(resolved["features"])
    if "synth" in resolved:
        _synth_config(resolved)
    return resolved


def _check_q(q: object, name: str) -> None:
    """The BH-FDR level must lie in (0, 1]; NaN fails the comparison."""
    if isinstance(q, bool) or not isinstance(q, (int, float)) or not 0 < q <= 1:
        raise ValueError(f"{name} must be a number in (0, 1], got {q!r}")


def _check_features(features: object) -> None:
    def valid(f: object) -> bool:
        if not isinstance(f, dict) or not set(f) <= {"name", "path", "sample_rate"}:
            return False
        return (isinstance(f.get("name"), str) and isinstance(f.get("path"), str)
                and matrixio.positive_rate(f.get("sample_rate", 1.0)))
    if not isinstance(features, list) or not features or not all(map(valid, features)):
        raise ValueError(f"config key 'features' must be a non-empty list of objects with string "
                         f"name and path and an optional positive sample_rate, got {features!r}")
    names = [f["name"] for f in features]
    if len(set(names)) < len(names):
        raise ValueError(f"config key 'features' must have distinct names: a run's report keys "
                         f"its levels by name, got {names!r}")
    rates = [f.get("sample_rate", 1.0) for f in features]
    if len(set(rates)) > 1:
        raise ValueError(f"config key 'features' must share one sample_rate: equal row counts at "
                         f"different rates cannot be aligned, got {rates!r}")


def _synth_config(cfg: dict) -> tuple[str, synthbench.SynthConfig]:
    """The preset and generator config of a run config's synth block."""
    block = cfg["synth"]
    if not isinstance(block, dict):
        raise ValueError(f"config key 'synth' must be an object, got {block!r}")
    params = {"seed": cfg["seed"], **block}
    preset = params.pop("preset", "replica")
    if preset not in synthbench.PRESETS:
        raise ValueError(f"config key 'synth.preset' must be one of {', '.join(synthbench.PRESETS)}, "
                         f"got {preset!r}")
    unknown = set(params) - {f.name for f in fields(synthbench.SynthConfig)}
    if unknown:
        raise ValueError(f"unknown config keys in 'synth': {sorted(unknown)}")
    try:
        return preset, synthbench.SynthConfig(**params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key 'synth': {exc}") from None


def _check_lambda_grid(grid: object) -> None:
    if not isinstance(grid, dict) or set(grid) != {"min", "max", "num"}:
        raise ValueError(f"config key 'lambda_grid' must be an object with exactly the keys "
                         f"min, max and num, got {grid!r}")
    for key in ("min", "max"):
        v = grid[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
            raise ValueError(f"config key 'lambda_grid.{key}' must be a finite number, got {v!r}")
    if not 0 < grid["min"] < grid["max"]:
        raise ValueError(f"config key 'lambda_grid' needs 0 < min < max, "
                         f"got min={grid['min']!r}, max={grid['max']!r}")
    num = grid["num"]
    if isinstance(num, bool) or not isinstance(num, int) or num < 1:
        raise ValueError(f"config key 'lambda_grid.num' must be an integer >= 1, got {num!r}")


def _grid_from(cfg: dict) -> np.ndarray:
    g = cfg["lambda_grid"]
    return np.logspace(np.log10(g["min"]), np.log10(g["max"]), g["num"])


@main.command()
@click.option("--config", "config_path", required=True, help="JSON run configuration")
def run(config_path: str) -> None:
    """Run the full pipeline from a JSON config; writes reports and SVG bars."""
    if not Path(config_path).exists():
        _fail(EXIT_USAGE, f"input file not found: {config_path}")
    try:
        doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        cfg = _resolve_run_config(doc)
    except (json.JSONDecodeError, ValueError) as exc:
        _fail(EXIT_USAGE, str(exc))
    out_dir = Path(cfg["out_dir"])
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

    t0 = time.perf_counter()
    if "synth" in cfg:
        manifest_path = out_dir / "data" / "manifest.json"
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        _write_synth_dataset(manifest_path.parent, synthbench.build_cohort(*_synth_config(cfg)))
        written.extend(manifest_path.parent.iterdir())
    else:
        manifest_path = Path(cfg["manifest"])
    timings["synth"] = time.perf_counter() - t0

    features = cfg.get("features")
    data, _ = _load_dataset(manifest_path, features and [f["path"] for f in features], cfg["detrend"])
    names = [f["name"] for f in features] if features else [f.name for f in data.manifest.features]
    if not data.manifest.subjects:
        _fail(EXIT_USAGE, f"manifest {manifest_path} lists no subjects")
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = out_dir / "resolved_config.json"
    snapshot.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(snapshot)

    # score every concatenation level, a column prefix of X, for every subject
    t0 = time.perf_counter()
    prefixes = [slice(end) for end in data.ends]
    per_subject = []
    for sub in data.manifest.subjects:
        y = _detrended(data, _read_response(manifest_path.parent / sub.response_path, data.rows))
        per_subject.append([sm.r_mean for sm in brain_score(data.X, y, data.manifest.blocks, prefixes, grid)])
    per_subject_scores = np.array(per_subject)  # subjects x levels x targets
    timings["score"] = time.perf_counter() - t0
    n_levels = len(names)
    # each level's subjects x targets, contiguous: a strided view sums in another order
    level_scores = [np.ascontiguousarray(per_subject_scores[:, L]) for L in range(n_levels)]

    # contrasts: per-level deltas relative to the previous level
    t0 = time.perf_counter()
    contrasts: dict[str, dict] = {}
    level_deltas: list[float] = []
    group_block = {}
    if n_levels >= 2:
        # subjects x (levels-1) x targets
        deltas = np.array([contrast_mod.delta_layerwise(s) for s in per_subject_scores])
        level_deltas = [float(deltas[:, L - 1].mean()) for L in range(1, n_levels)]
        for L, delta in enumerate(level_deltas, start=1):
            contrasts[f"{names[L]}_vs_{names[L - 1]}"] = {"mean_delta_r": delta, "per_level_index": L}
        if len(data.manifest.subjects) >= 5:
            top_delta = contrast_mod.delta_vs_baseline(level_scores[-1], level_scores[0])
            stats = groupstats.group_test(top_delta, cfg["alternative"], cfg["q"])
            group_block = {
                "contrast": f"{names[-1]}_vs_{names[0]}",
                "n_significant": int(stats.significant.sum()),
                "n_targets": int(stats.significant.size),
                "positive_mean_delta": float(top_delta.mean()),
            }
            matrixio.write_matrix(out_dir / "group_delta.fmx", top_delta)
            written.append(out_dir / "group_delta.fmx")
    timings["contrast"] = time.perf_counter() - t0

    mean_scores_per_level = [float(level.mean()) for level in level_scores]
    charts = {"scores_per_level.svg": report.bar_chart_svg(
        names, mean_scores_per_level, title="mean brain score per concatenation level")}
    if n_levels >= 2:
        charts["delta_per_level.svg"] = report.bar_chart_svg(
            [f"L{L}" for L in range(1, n_levels)], level_deltas, title="mean delta R per level")
    for chart, svg in charts.items():
        (out_dir / chart).write_text(svg, encoding="utf-8")
        written.append(out_dir / chart)

    subject_mean = level_scores[-1].mean(axis=0)
    doc = {
        "stages": {"timings_seconds": timings},
        "scores": {
            "per_level_mean_r": dict(zip(names, mean_scores_per_level)),
            **report.summarize_scores(subject_mean, data.manifest.rois or None),
        },
        "contrasts": contrasts,
        "group": group_block,
        "config_snapshot": "resolved_config.json",
    }
    report.write_report(out_dir / "report.json", doc)
    written.append(out_dir / "report.json")


if __name__ == "__main__":
    main()
