"""Call tracing from outside the program: wrappers at every module binding.

``Tracer.install`` wraps each public function of each layer module (and the
public methods and dataclass validation of its public classes), then rebinds
every ``voxenc*`` module attribute that points at the original object, so a
call through ``voxenc.cli.brain_score`` or ``voxenc.synthbench.hrf_align`` is
traced as well as one through the defining module. A later refactor that
rebinds a name without going through these modules shows up as lost
coverage, not as a faster layer.

Spans live in memory as ``(id, parent, name, t0, t1, op)`` tuples and are
written out as JSON lines when the child exits. ``aggregate`` turns spans
into per-function calls, inclusive and self time, and per-call durations.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

# layer name -> defining modules
LAYERS = {
    "dsp": ["voxenc.dsp"],
    "hemo": ["voxenc.hemo"],
    "encode": ["voxenc.encode"],
    "contrast": ["voxenc.contrast"],
    "groupstats": ["voxenc.groupstats"],
    "ctc": ["voxenc.ctc.core", "voxenc.ctc._forward_py", "voxenc.ctc._forward_c"],
    "synthbench": ["voxenc.synthbench"],
    "rng": ["voxenc.rng"],
    "matrixio": ["voxenc.matrixio"],
    "report": ["voxenc.report"],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped so each call records a span under ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, self.op))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public callables."""
        for layer, module_names in LAYERS.items():
            for mod_name in module_names:
                mod = sys.modules.get(mod_name)
                if mod is None:
                    continue
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                        continue
                    if inspect.isfunction(obj):
                        name = f"{layer}.{attr}"
                        _rebind(obj, self.wrap(obj, name, HOOKS.get(name)))
                    elif inspect.isclass(obj):
                        self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if not inspect.isfunction(member):
                continue
            if attr == "__post_init__":
                name = f"{layer}.{cls.__name__}"  # dataclass validation
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{cls.__name__}.{attr}"
            setattr(cls, attr, self.wrap(member, name, HOOKS.get(name)))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "t0": t0, "t1": t1, "op": op}) + "\n")


def _rebind(original, wrapped) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "voxenc" or mod_name.startswith("voxenc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


# --- counters read at layer boundaries -------------------------------------

def _ridge_hook(tracer: Tracer, args, kwargs, fit) -> None:
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    if grid is None:
        grid = sys.modules["voxenc.encode"].DEFAULT_LAMBDA_GRID
    grid = np.asarray(grid, dtype=np.float64)
    chosen = np.asarray(fit.chosen_lambda)
    tracer.count("encode.ridge_solve.targets", chosen.size)
    tracer.count("encode.ridge_solve.edge_targets",
                 int(np.count_nonzero((chosen == grid.min()) | (chosen == grid.max()))))


def _read_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("matrixio.read_matrix.bytes", np.asarray(result).nbytes)


def _write_hook(tracer: Tracer, args, kwargs, result) -> None:
    data = args[1] if len(args) > 1 else kwargs["data"]
    tracer.count("matrixio.write_matrix.bytes", np.asarray(data).nbytes)


def _normal_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("rng.values", np.asarray(result).size)


HOOKS = {
    "encode.ridge_solve": _ridge_hook,
    "matrixio.read_matrix": _read_hook,
    "matrixio.write_matrix": _write_hook,
    "rng.CounterRng.normal": _normal_hook,
}


# --- aggregation -----------------------------------------------------------

def load_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def aggregate(spans: list[dict]) -> dict:
    """Per-name calls, inclusive and self seconds, durations; root time per op.

    Self time is a span's duration minus the durations of its direct child
    spans. ``root_s`` maps op index to the time covered by top-level spans.
    """
    child_s: dict[int, float] = {}
    for s in spans:
        if s["parent"]:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + (s["t1"] - s["t0"])
    funcs: dict[str, dict] = {}
    root_s: dict[int, float] = {}
    for s in spans:
        dur = s["t1"] - s["t0"]
        f = funcs.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        f["calls"] += 1
        f["total_s"] += dur
        f["self_s"] += dur - child_s.get(s["id"], 0.0)
        f["durations"].append(dur)
        if not s["parent"]:
            root_s[s["op"]] = root_s.get(s["op"], 0.0) + dur
    return {"funcs": funcs, "root_s": root_s}
