#!/usr/bin/env python3
"""voxenc benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 voxbench/run.py --workload replica_run --seed 1 --seconds 30 --trace 0

Inputs are generated from the seed before any child starts. Each pass runs
in a fresh ``child.py`` process that imports ``voxenc.cli`` (set-up) and then
calls ``voxenc.cli.main([...], standalone_mode=False)`` once per operation.
Passes repeat while another one fits into ``--seconds``. Outputs are checked
by ``checks.py``. The last stdout line is one JSON object; with ``--trace 0``
its metrics are the end-to-end ones (``setup_s`` is the median of several
timed imports spread over the run), with ``--trace 1`` the per-layer ones
from passes run untraced, traced, traced, untraced (and so on).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from envinfo import env_block
from spans import aggregate, load_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
SRC = ROOT / "src"

SETUP_SAMPLES = 6  # imports timed per untraced run; setup_s is their median
MIN_PASSES = 2  # a median needs company
MIN_TRACED_RUN_PASSES = 4  # untraced, traced, traced, untraced: linear drift cancels
RUN_BUDGET_S = 165.0  # no new child starts after this; each run must end by 180 s
THREAD_VARS = ("VOXENC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "GOTO_NUM_THREADS", "VOXENC_PURE_PYTHON")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: every listed function gets calls, total_s and self_s
TRACED_FUNCS = [
    "encode.brain_score", "encode.ridge_solve", "encode.standardize", "encode.detrend_blocks",
    "matrixio.read_matrix", "matrixio.write_matrix",
    "groupstats.group_test", "groupstats.wilcoxon_signed_rank", "groupstats.fdr_bh",
    "dsp.read_wav", "dsp.resample_to_mono_16k", "dsp.power_spectrogram", "dsp.mel_filterbank",
    "hemo.hrf_align", "hemo.minmax_normalize", "hemo.glover_hrf", "hemo.convolve_downsample",
    "ctc.CtcInstance", "ctc.ctc_log_likelihood", "ctc.ctc_greedy_decode",
    "ctc.forward_log_likelihood",
    "rng.CounterRng.normal",
    "report.write_report", "report.bar_chart_svg",
    "contrast.build_concat", "contrast.delta_vs_baseline", "contrast.delta_layerwise",
    "contrast.delta_models", "contrast.average_score_maps",
]
# (function, percentile, unit): per-call latency where some workload makes >= 200 calls
PERCENTILES = [(f, q, "ms") for f in ("encode.ridge_solve", "encode.standardize",
                                      "matrixio.read_matrix", "ctc.CtcInstance",
                                      "ctc.ctc_log_likelihood", "ctc.ctc_greedy_decode")
               for q in (50, 95)]
PERCENTILES += [("groupstats.wilcoxon_signed_rank", q, "us") for q in (50, 99)]
DERIVED = {
    "encode.ridge_solve.targets_per_s": "1/s",
    "encode.ridge_solve.lambda_edge_frac": "frac",
    "matrixio.read_matrix.mb": "MB",
    "matrixio.write_matrix.mb": "MB",
    "rng.CounterRng.normal.mvalues": "Mvalues",
    "cli.self_s": "s",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for f in TRACED_FUNCS:
        units.update({f"{f}.calls": "count", f"{f}.total_s": "s", f"{f}.self_s": "s"})
    for f, q, unit in PERCENTILES:
        units[f"{f}.p{q}_{unit}"] = unit
    units.update(DERIVED)
    return units


# --- child processes -------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The program's default thread settings: no thread variables at all."""
    return {k: v for k, v in os.environ.items() if k not in THREAD_VARS}


def run_child(spec: dict, cwd: Path, deadline: float) -> dict:
    """Run child.py on ``spec``; returns its result plus setup_s, rss_mb, returncode."""
    spec_path = cwd / "child_spec.json"
    spec = {**spec, "src": str(SRC), "result": str(cwd / "child_result.json")}
    spec_path.write_text(json.dumps(spec))
    Path(spec["result"]).unlink(missing_ok=True)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                            cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=2)
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.send_signal(signal.SIGKILL)

    # a blocking wait keeps this process asleep while the child is measured
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {}
    if Path(spec["result"]).exists():
        result = json.loads(Path(spec["result"]).read_text())
    if "import_error" in result:
        raise SystemExit(f"voxbench: the program does not import: {result['import_error']}")
    result["returncode"] = proc.returncode
    result["killed"] = killed.is_set()
    result["rss_mb"] = rusage.ru_maxrss / 1024.0
    if "ready_ts" in result:
        result["setup_s"] = result["ready_ts"] - t_spawn
    return result


def _digest(work: Path, op: dict, res: dict | None) -> str:
    """Hash of an op's stdout and output files; a report's ``stages`` timings
    are left out, since only they may differ between reruns."""
    h = hashlib.sha256((res or {}).get("stdout", "").encode())
    for rel in op["outputs"]:
        path = work / rel
        data = path.read_bytes() if path.exists() else b"<missing>"
        if path.name.endswith("report.json") and path.exists():
            try:
                doc = json.loads(data)
                doc.pop("stages", None)
                data = json.dumps(doc, sort_keys=True).encode()
            except (ValueError, AttributeError):
                pass  # malformed: hash the raw bytes; the output check reports it
        h.update(data)
    return h.hexdigest()


def run_pass(plan: list[dict], work: Path, traced: bool, index: int, deadline: float) -> dict:
    spans = work.parent / "spans" / f"pass{index}.jsonl"
    spec = {"ops": plan, "trace": traced, "spans": str(spans)}
    res = run_child(spec, work, deadline)
    ops = res.get("ops") or []
    if res["returncode"] != 0 or len(ops) != len(plan):
        note = "killed at the run deadline" if res["killed"] else f"exit code {res['returncode']}"
        ops = ops + [{"code": -1, "wall_s": 0.0, "cpu_s": 0.0, "stdout": "",
                      "error": f"child process ended early ({note})"}] * (len(plan) - len(ops))
    res.update(ops=ops, traced=traced, spans=str(spans) if traced else None,
               digests=[_digest(work, op, r) for op, r in zip(plan, ops)])
    return res


# --- one benchmark run ------------------------------------------------------------

def measure(workload: str, seed: int, seconds: int, trace: bool, refs: dict | None) -> dict:
    t_run = time.perf_counter()
    deadline = t_run + RUN_BUDGET_S
    base = WORK / workload
    shutil.rmtree(base, ignore_errors=True)
    work = base / "data"
    (base / "spans").mkdir(parents=True)
    plan = workloads.prepare(workload, seed, work)

    def probe() -> dict:
        """An import-only child: one set-up sample, and the env facts only a child can see."""
        return run_child({"probe": True, "ops": []}, work, deadline)

    # Untraced runs time one import before each pass and more after the last,
    # so the set-up samples are spread over the run; traced runs need only one.
    probes = [probe()]
    passes: list[dict] = []
    min_passes = MIN_TRACED_RUN_PASSES if trace else MIN_PASSES
    t0 = time.perf_counter()
    while True:
        if passes and not trace:
            probes.append(probe())
        traced = trace and len(passes) % 4 in (1, 2)
        passes.append(run_pass(plan, work, traced, len(passes), deadline))
        elapsed = time.perf_counter() - t0
        per_pass = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + per_pass > seconds:
            break
        if time.perf_counter() + per_pass > deadline:
            break
    setup = [r["setup_s"] for r in probes + passes if "setup_s" in r]
    while not trace and len(setup) < SETUP_SAMPLES and time.perf_counter() + 10.0 < deadline:
        extra = probe()
        if "setup_s" not in extra:
            break
        setup.append(extra["setup_s"])

    problems = checks.check(workload, work, plan, passes[-1]["ops"], seed, refs)
    return {"workload": workload, "seed": seed, "plan": plan, "probe": probes[0],
            "setup_samples": setup,
            "passes": passes, "attempted": len(plan) * len(passes),
            "failed": count_failures(plan, passes, problems),
            "run_s": time.perf_counter() - t_run, "work": work}


def count_failures(plan: list[dict], passes: list[dict], problems: list[list[str]]) -> int:
    """Mark each pass's failed ops: nonzero exit, output check, or output that
    differs from the first pass. Returns the number of failed operations."""
    failed = 0
    for p in passes:
        p["failed_ops"] = []
        for i, (op, res) in enumerate(zip(plan, p["ops"])):
            why = list(problems[i])
            if res["code"] != 0:
                why.insert(0, f"exit {res['code']}: {res['error']}")
            if p["digests"][i] != passes[0]["digests"][i]:
                why.append("output differs from the first pass")
            if why:
                p["failed_ops"].append({"op": op["name"], "why": why})
        failed += len(p["failed_ops"])
    return failed


def pass_wall(p: dict) -> float:
    return sum(op["wall_s"] for op in p["ops"])


def _by_kind(plan: list[dict], p: dict) -> dict[str, list[float]]:
    """Wall and CPU seconds per operation kind within one pass."""
    out: dict[str, list[float]] = {}
    for op, res in zip(plan, p["ops"]):
        acc = out.setdefault(op["kind"], [0.0, 0.0])
        acc[0] += res["wall_s"]
        acc[1] += res["cpu_s"]
    return out


def end_to_end_metrics(run: dict) -> dict[str, float]:
    clean = [p for p in run["passes"] if not p["failed_ops"]] or run["passes"]
    return {
        "wall_s": statistics.median(pass_wall(p) for p in clean),
        "setup_s": statistics.median(run["setup_samples"]),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in run["passes"]),
    }


def layer_metrics(run: dict) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from the traced passes; overhead vs the untraced ones."""
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    aggs = [aggregate(load_spans(Path(p["spans"]))) for p in traced]
    out: dict[str, float] = {}
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    for f in TRACED_FUNCS:
        stats = [a["funcs"].get(f, empty) for a in aggs]
        out[f"{f}.calls"] = stats[0]["calls"]
        out[f"{f}.total_s"] = statistics.median(s["total_s"] for s in stats)
        out[f"{f}.self_s"] = statistics.median(s["self_s"] for s in stats)
    for f, q, unit in PERCENTILES:
        d = [x for a in aggs for x in a["funcs"].get(f, empty)["durations"]]
        scale = 1e3 if unit == "ms" else 1e6
        out[f"{f}.p{q}_{unit}"] = float(np.percentile(d, q)) * scale if d else 0.0

    def counter(key: str) -> float:
        return statistics.median(p.get("counters", {}).get(key, 0.0) for p in traced)

    targets = counter("encode.ridge_solve.targets")
    ridge_s = out["encode.ridge_solve.total_s"]
    out["encode.ridge_solve.targets_per_s"] = targets / ridge_s if ridge_s > 0 else 0.0
    out["encode.ridge_solve.lambda_edge_frac"] = (
        counter("encode.ridge_solve.edge_targets") / targets if targets else 0.0)
    out["matrixio.read_matrix.mb"] = counter("matrixio.read_matrix.bytes") / 1e6
    out["matrixio.write_matrix.mb"] = counter("matrixio.write_matrix.bytes") / 1e6
    out["rng.CounterRng.normal.mvalues"] = counter("rng.values") / 1e6
    traced_wall = [pass_wall(p) for p in traced]
    covered = [sum(a["root_s"].values()) for a in aggs]
    out["cli.self_s"] = statistics.median(w - c for w, c in zip(traced_wall, covered))
    out["trace.coverage"] = statistics.median(c / w for w, c in zip(traced_wall, covered))
    plain_wall = statistics.median(pass_wall(p) for p in plain)
    # passes come in untraced-traced-traced-untraced order, so a linear drift
    # of the host's speed cancels out of this ratio
    out["trace.overhead_frac"] = statistics.median(traced_wall) / plain_wall - 1.0
    cpu = statistics.median(sum(op["cpu_s"] for op in p["ops"]) for p in plain)
    out["proc.cpu_s"] = cpu
    out["proc.cpu_util"] = cpu / plain_wall
    full = {}  # every traced function, for the record file
    for a in aggs[:1]:
        for name, s in sorted(a["funcs"].items()):
            full[name] = {"calls": s["calls"], "total_s": s["total_s"], "self_s": s["self_s"]}
    return out, full


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "voxenc" / "cli.py").is_file():
        print(f"voxbench: program source not found at {SRC / 'voxenc'}", file=sys.stderr)
        return 2
    refs_path = BENCH / "refs.json"
    refs = json.loads(refs_path.read_text()) if refs_path.exists() else None

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), refs)
    env = env_block(ROOT, args.seed, run["probe"])
    if args.trace and not any(p["traced"] for p in run["passes"]):
        print("voxbench: no traced pass fitted before the run deadline", file=sys.stderr)
        return 1
    if args.trace:
        values, full = layer_metrics(run)
        units = per_layer_units()
    else:
        values, full = end_to_end_metrics(run), {}
        units = END_TO_END

    error_rate = run["failed"] / run["attempted"]
    print(f"voxbench {args.workload} seed={args.seed}: {len(run['passes'])} passes "
          f"({', '.join(f'{pass_wall(p):.3f}s' for p in run['passes'])}) in {run['run_s']:.1f}s")
    shown = ["trace.coverage", "trace.overhead_frac", "cli.self_s", "proc.cpu_util"] if args.trace else units
    print("  " + ", ".join(f"{k} {values[k]:.6g} {units[k]}" for k in shown)
          + f", error_rate {error_rate:g} ({run['failed']}/{run['attempted']} ops)")
    has_ref = str(args.seed) in (refs or {}).get(args.workload, {})
    print(f"  checks: oracles{' + recorded references' if has_ref else ' only (no reference recorded for this seed)'}")
    for i, p in enumerate(run["passes"]):
        for f in p["failed_ops"][:5]:
            print(f"  pass {i} FAILED {f['op']}: {'; '.join(f['why'])[:400]}")
    record = {"env": env, "error_rate": error_rate, "metrics": values, "layers": full,
              "passes": [{"wall_s": pass_wall(p), "setup_s": p.get("setup_s"), "rss_mb": p["rss_mb"],
                          "cpu_s": sum(op["cpu_s"] for op in p["ops"]), "by_kind": _by_kind(run["plan"], p),
                          "traced": p["traced"], "failed_ops": p["failed_ops"]} for p in run["passes"]],
              "setup_samples": run["setup_samples"]}
    (WORK / args.workload / "last_run.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(run["work"], ignore_errors=True)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
