"""One fresh Python process per workload pass: import the CLI, run the ops.

Usage: python3 child.py SPEC.json

The spec names the program's ``src`` directory, the operations (CLI argument
lists), whether to trace, and where to write the result. Nothing heavier than
the standard library is imported before ``voxenc.cli``, so ``ready_ts`` minus
the parent's spawn time is the set-up cost every CLI invocation pays.
"""

import contextlib
import io
import json
import resource
import sys
import time


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def run_op(main, args: list[str]) -> dict:
    """Call ``main(args, standalone_mode=False)``; classify how it ended."""
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            rv = main(args, standalone_mode=False)
            if isinstance(rv, int) and rv != 0:
                code = rv
        except SystemExit as exc:
            code = _exit_code(exc)
        except Exception as exc:  # any crash of the program is a failed operation
            code, error = 1, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    if code != 0 and error is None:
        error = err.getvalue().strip()[-500:] or f"exit code {code}"
    return {"code": code, "wall_s": t1 - t0, "cpu_s": cpu,
            "stdout": out.getvalue(), "error": error}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    try:
        from voxenc.cli import main as cli_main
    except Exception as exc:
        result = {"import_error": f"{type(exc).__name__}: {exc}"}
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 3
    ready_ts = time.perf_counter()

    result = {"ready_ts": ready_ts}
    if spec.get("probe"):
        import voxenc.ctc

        from envinfo import blas_threads

        result.update(backend=voxenc.ctc.BACKEND_NAME, blas_threads=blas_threads())
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = []
    for i, op in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = i
        ops.append(run_op(cli_main, op["args"]))
    result["ops"] = ops
    if tracer is not None:
        result["counters"] = tracer.counters
        tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
