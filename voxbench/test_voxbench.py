"""Self-tests for the benchmark itself.

Run from the repository root:  python3 -m pytest -q voxbench/test_voxbench.py
They write only under voxbench/work/selftest and take about a minute.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

import pytest

import checks
import run
import workloads
from spans import Tracer, aggregate

SELFTEST = run.WORK / "selftest"


@pytest.fixture
def workdir(request):
    path = SELFTEST / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload, workdir):
    plans = [workloads.prepare(workload, seed, workdir / f"{i}")
             for i, seed in enumerate((5, 5, 6))]
    same, again, other = (_tree_digest(workdir / f"{i}") for i in range(3))
    assert plans[0] == plans[1] == plans[2]
    assert same == again
    assert same.keys() == other.keys()
    assert all(same[k] != other[k] for k in same if k.endswith((".fmx", ".wav", ".txt")))
    assert same != other


def test_self_time_on_nested_spans():
    spans = [  # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner [5, 6] holds leaf [5.5, 5.75]
        {"id": 1, "parent": 0, "name": "outer", "t0": 0.0, "t1": 10.0, "op": 0},
        {"id": 2, "parent": 1, "name": "inner", "t0": 1.0, "t1": 4.0, "op": 0},
        {"id": 3, "parent": 1, "name": "inner", "t0": 5.0, "t1": 6.0, "op": 0},
        {"id": 4, "parent": 3, "name": "leaf", "t0": 5.5, "t1": 5.75, "op": 0},
        {"id": 5, "parent": 0, "name": "inner", "t0": 11.0, "t1": 12.0, "op": 1},
    ]
    agg = aggregate(spans)
    f = agg["funcs"]
    assert (f["outer"]["calls"], f["outer"]["total_s"], f["outer"]["self_s"]) == (1, 10.0, 6.0)
    assert (f["inner"]["calls"], f["inner"]["total_s"], f["inner"]["self_s"]) == (3, 5.0, 4.75)
    assert (f["leaf"]["total_s"], f["leaf"]["self_s"]) == (0.25, 0.25)
    assert agg["root_s"] == {0: 10.0, 1: 1.0}


def test_tracer_records_nested_calls():
    tracer = Tracer()

    def inner(x):
        time.sleep(0.01)
        return x + 1

    w_inner = tracer.wrap(inner, "toy.inner")

    def outer(x):
        time.sleep(0.02)
        return w_inner(w_inner(x))

    assert tracer.wrap(outer, "toy.outer")(1) == 3
    spans = [dict(zip(("id", "parent", "name", "t0", "t1", "op"), s)) for s in tracer.spans]
    f = aggregate(spans)["funcs"]
    assert f["toy.inner"]["calls"] == 2 and f["toy.outer"]["calls"] == 1
    assert f["toy.outer"]["self_s"] == pytest.approx(
        f["toy.outer"]["total_s"] - f["toy.inner"]["total_s"], abs=1e-12)
    assert 0.015 < f["toy.outer"]["self_s"] < f["toy.outer"]["total_s"]


def test_corrupted_reference_makes_error_rate_positive():
    refs = json.loads((run.BENCH / "refs.json").read_text())
    seed = min(int(s) for s in refs["replica_run"])
    corrupted = json.loads(json.dumps(refs))
    corrupted["replica_run"][str(seed)]["run"]["scores"]["mean_r"] += 1e-3
    result = run.measure("replica_run", seed, 1, False, corrupted)
    assert result["failed"] == result["attempted"] == len(result["passes"]) >= run.MIN_PASSES
    assert len(result["setup_samples"]) == run.SETUP_SAMPLES
    for p in result["passes"]:
        assert "reference mismatch" in p["failed_ops"][0]["why"][0]
    # the same outputs pass against the uncorrupted table
    plan, work = result["plan"], result["work"]
    assert checks.check("replica_run", work, plan, result["passes"][0]["ops"], seed, refs) == [[]]
    # and the seed-independent oracle alone catches a shifted delta file
    delta = work / plan[0]["outputs"][1]
    workloads.write_fmx(delta, workloads.read_fmx(delta) + 1e-6)
    problems = checks.check("replica_run", work, plan, result["passes"][0]["ops"], seed, None)
    assert any("dense oracle" in why for why in problems[0])
    shutil.rmtree(work.parent, ignore_errors=True)


@pytest.mark.parametrize("kind", ["spectrogram", "mel"])
def test_featurize_oracle_recomputes_frames(kind, workdir, monkeypatch):
    import numpy as np

    monkeypatch.setattr(workloads, "AUDIO_SECONDS", 3)
    monkeypatch.setattr(checks, "AUDIO_SECONDS", 3)
    monkeypatch.chdir(workdir)
    monkeypatch.syspath_prepend(str(run.SRC))
    from voxenc.cli import main

    workloads._write_wav(workdir / "audio.wav", np.random.default_rng(0))
    op = {"kind": "featurize", "outputs": [f"{kind}.fmx"],
          "args": ["featurize", "--wav", "audio.wav", "--kind", kind, "--out", f"{kind}.fmx"]}
    main(op["args"], standalone_mode=False)
    assert checks._oracle_featurize(workdir, op, {}, 0) == []
    out = workloads.read_fmx(workdir / op["outputs"][0])
    out[0] *= 1 + 1e-6  # frame 0 is always among the recomputed ones
    workloads.write_fmx(workdir / op["outputs"][0], out)
    assert checks._oracle_featurize(workdir, op, {}, 0) == [f"frame 0 differs from the recomputed {kind} frame"]


def test_op_exiting_2_is_failed(workdir):
    plan = [{"name": "missing", "kind": "ctc_eval", "outputs": [],
             "args": ["ctc-eval", "--logprobs", "absent.fmx", "--targets", "absent.txt"]}]
    p = run.run_pass(plan, workdir, False, 0, time.perf_counter() + 120)
    assert p["returncode"] == 0
    assert p["ops"][0]["code"] == 2
    assert run.count_failures(plan, [p], [[]]) == 1


def test_child_exiting_2_is_failed_not_fast(workdir, monkeypatch):
    fake = workdir / "fake"
    fake.mkdir()
    (fake / "child.py").write_text("import sys\nsys.exit(2)\n")
    monkeypatch.setattr(run, "BENCH", fake)
    plan = [{"name": f"op{i}", "kind": "run", "args": ["run"], "outputs": []} for i in range(3)]
    bad = run.run_pass(plan, workdir, False, 0, time.perf_counter() + 60)
    assert bad["returncode"] == 2
    assert [op["code"] for op in bad["ops"]] == [-1, -1, -1]
    assert run.count_failures(plan, [bad], [[], [], []]) == 3
    # a clean slow pass next to the failed fast one: wall_s comes from the clean one
    good = {"ops": [{"code": 0, "wall_s": 4.0}] * 3, "digests": bad["digests"], "rss_mb": 1.0}
    passes = [good, bad]
    failed = run.count_failures(plan, passes, [[], [], []])
    metrics = run.end_to_end_metrics({"passes": passes, "setup_samples": [1.0]})
    assert failed == 3 and metrics["wall_s"] == 12.0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_ctc_oracle_matches_log_space_recursion():
    import numpy as np

    rng = np.random.default_rng(0)
    log_probs, targets = workloads.ctc_instance(rng)
    ext = [0]
    for t in targets:
        ext += [t, 0]
    alpha = np.full(len(ext), -np.inf)
    alpha[:2] = log_probs[0, ext[:2]]
    for t in range(1, log_probs.shape[0]):
        new = np.full_like(alpha, -np.inf)
        for s in range(len(ext)):
            terms = [alpha[s]] + ([alpha[s - 1]] if s else [])
            if s > 1 and ext[s] != 0 and ext[s] != ext[s - 2]:
                terms.append(alpha[s - 2])
            new[s] = np.logaddexp.reduce(terms) + log_probs[t, ext[s]]
        alpha = new
    want = np.logaddexp(alpha[-1], alpha[-2])
    assert checks.ctc_forward_linear(log_probs, targets) == pytest.approx(want, rel=1e-12)
