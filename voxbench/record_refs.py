#!/usr/bin/env python3
"""Record output fingerprints of the current program into ``refs.json``.

Usage (from the repository root):

    python3 voxbench/record_refs.py --seeds 0-23

Each (workload, seed) runs one untraced pass. A pass is recorded only when
every operation exits 0 and the independent oracles in ``checks.py`` accept
its outputs. Run this on the commit whose outputs are the reference; later
commits are then held to them by ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import checks
import workloads
from run import BENCH, WORK, run_pass


def dump_refs(refs: dict) -> str:
    """JSON with one line per (workload, seed), so a re-record diffs by seed."""
    blocks = []
    for workload in sorted(refs):
        lines = [f'  "{seed}": {json.dumps(refs[workload][seed], sort_keys=True)}'
                 for seed in sorted(refs[workload], key=int)]
        blocks.append(f' "{workload}": {{\n' + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range such as 0-23")
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    path = BENCH / "refs.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            work = WORK / "record" / workload
            shutil.rmtree(work, ignore_errors=True)
            plan = workloads.prepare(workload, seed, work)
            res = run_pass(plan, work, False, 0, time.perf_counter() + 600)
            bad = [f"{op['name']}: {r['error']}" for op, r in zip(plan, res["ops"]) if r["code"]]
            bad += [f"{op['name']}: {p}" for op, ps in
                    zip(plan, checks.check(workload, work, plan, res["ops"], seed, None)) for p in ps]
            if bad:
                print(f"{workload} seed {seed}: not recorded: {bad[:3]}", file=sys.stderr)
                return 1
            refs.setdefault(workload, {})[str(seed)] = checks.fingerprint(plan, res["ops"], work)
            shutil.rmtree(work, ignore_errors=True)
            print(f"{workload} seed {seed}: recorded", flush=True)
        path.write_text(dump_refs(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
