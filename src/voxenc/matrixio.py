"""Binary (FMX1) and CSV matrix I/O, JSON files and the key checks of input documents.

Container layout, all little-endian:

    bytes 0-3   magic b"FMX1"
    byte  4     dtype code: 0 = float32, 1 = float64
    byte  5     ndim
    next        ndim x uint64 dimension sizes
    rest        row-major payload

The format carries no metadata; sampling rates, block structure and ROI
definitions live in the JSON manifest. ``read_manifest`` returns the
manifest's checked JSON object: keys outside ``MANIFEST`` are dropped,
absent keys take their defaults, and each ROI is a non-empty list of
non-negative integer indices; ``score`` and ``run`` also check that the
indices are below the response's target count. ``write_json`` writes every
JSON file the CLI makes.

Each array exists once: ``read_matrix`` checks the payload length against
the file size, reads the payload straight into the returned array and
checks finiteness ``_CHECK_BLOCK`` values at a time; ``write_matrix`` writes
the array's own buffer. A pipe has no size, so its payload is read whole
before the check, which costs one copy.
"""

from __future__ import annotations

import copy
import io
import json
import struct
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

MAGIC = b"FMX1"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_MAX_DIM = 2**48  # guards against garbage headers allocating petabytes
# Values per finiteness check in read_matrix: a 64 KB boolean temporary.
_CHECK_BLOCK = 1 << 16


class MatrixParseError(ValueError):
    """Malformed container or CSV; message names the byte offset or row."""


def write_matrix(path: str | Path, data: np.ndarray) -> None:
    """Write ``data`` to the FMX1 binary container (bit-exact round trip)."""
    arr = np.asarray(data)
    if arr.dtype not in _DTYPE_CODES:
        arr = arr.astype(np.float64)
    code = _DTYPE_CODES[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        np.ascontiguousarray(arr, dtype=_DTYPES[code]).tofile(fh)


def read_matrix(path: str | Path) -> np.ndarray:
    """Read an FMX1 container or a CSV-with-header file.

    Dispatches on the magic bytes; anything that does not start with FMX1
    is parsed as CSV. Non-finite payload values are rejected.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head != MAGIC:  # a pipe cannot be reopened: parse on from this handle
            return _read_csv(path, io.TextIOWrapper(io.BytesIO(head + fh.read()), encoding="utf-8"))
        meta = fh.read(2)
        if len(meta) < 2:
            raise MatrixParseError(f"{path}: truncated header at byte {4 + len(meta)}")
        code, ndim = struct.unpack("<BB", meta)
        if code not in _DTYPES:
            raise MatrixParseError(f"{path}: unknown dtype code {code} at byte 4")
        dim_bytes = fh.read(8 * ndim)
        if len(dim_bytes) < 8 * ndim:
            raise MatrixParseError(f"{path}: truncated dims at byte {6 + len(dim_bytes)}")
        shape = struct.unpack(f"<{ndim}Q", dim_bytes)
        if any(d > _MAX_DIM for d in shape):
            raise MatrixParseError(f"{path}: dimension overflow in header, shape {shape}")
        n_expect = int(np.prod(shape)) if shape else 1
        dtype = _DTYPES[code]
        header = 6 + 8 * ndim
        if fh.seekable():
            src, n_bytes = fh, fh.seek(0, io.SEEK_END) - header
            fh.seek(header)
        else:  # a pipe has no size: read the rest of it first, at the cost of one copy
            payload = fh.read()
            src, n_bytes = io.BytesIO(payload), len(payload)
        n_got, rem = divmod(n_bytes, dtype.itemsize)
        if rem or n_got != n_expect:
            raise MatrixParseError(
                f"{path}: payload holds {n_got} values (+{rem} bytes), header declares {n_expect}"
            )
        arr = np.empty(shape, dtype=dtype)
        flat = arr.reshape(-1)
        if src.readinto(flat.view(np.uint8)) != arr.nbytes:
            raise MatrixParseError(f"{path}: payload shorter than its {arr.nbytes} bytes")
    for start in range(0, flat.size, _CHECK_BLOCK):
        finite = np.isfinite(flat[start : start + _CHECK_BLOCK])
        if not finite.all():
            offset = header + (start + int(np.argmin(finite))) * dtype.itemsize
            raise MatrixParseError(f"{path}: non-finite entry at byte offset {offset}")
    return arr


def _read_csv(path: Path, text: io.TextIOWrapper) -> np.ndarray:
    try:
        lines = [ln.strip() for ln in text if ln.strip()]
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: neither FMX1 nor UTF-8 CSV: {exc}") from None
    if len(lines) < 2:
        raise MatrixParseError(f"{path}: CSV needs a header row plus at least one data row")
    n_cols = len(lines[0].split(","))
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise MatrixParseError(f"{path}: row {i} has {len(cells)} cells, expected {n_cols}")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise MatrixParseError(f"{path}: row {i}: {exc}") from None
        if not all(np.isfinite(row)):
            raise MatrixParseError(f"{path}: non-finite entry at row {i}")
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def read_manifest(path: str | Path) -> dict:
    """The manifest's JSON object, each key of ``MANIFEST`` checked or defaulted; other keys are dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        return check_fields(json.load(fh), MANIFEST, "manifest key '{}'")


def write_json(path: str | Path, doc: object) -> None:
    """Write ``doc`` as JSON with sorted keys, a two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def is_int(v: object) -> bool:
    """An integer; like the predicates below, it counts no bool as a number."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def finite(v: object) -> bool:
    """A number within float range: NaN, inf and larger ints fail."""
    return (is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def fdr_level(q: object) -> bool:
    return finite(q) and 0 < q <= 1


def positive_rate(rate: object) -> bool:
    return finite(rate) and rate > 0


def nonempty_path(v: object) -> bool:
    return isinstance(v, str) and v != ""


class Check(NamedTuple):
    """A key's check: the test its value must pass, the text after "must be"
    when it fails, and the value taken when the key is absent (None: none).

    A list- or object-valued key may also have ``each``, the check of every
    item (an object's items are its values). The message shows only the first
    failing item, after its list index or object key, down to the innermost
    one, so one bad record of a long list or one bad index of a long ROI gives
    a short message. An item's ``text`` is not shown.
    """

    ok: Callable[[object], bool]
    text: str = ""
    default: object = None
    each: Check | None = None

    def check(self, value: object, label: str) -> object:
        fault = self.fault(value)
        if fault is not None:
            raise ValueError(f"{label} must be {self.text}, got {fault}")
        return value

    def fault(self, value: object) -> str | None:
        """None if ``value`` passes, else what the message shows after "got"."""
        if not self.ok(value):
            return repr(value)
        if self.each is not None:
            for key, item in value.items() if isinstance(value, dict) else enumerate(value):
                fault = self.each.fault(item)
                if fault is not None:
                    return f"{key!r}: {fault}" if isinstance(value, dict) else f"item {key}: {fault}"
        return None


def check_fields(doc: object, table: dict[str, Check], label: str) -> dict:
    """The value or default of each key of ``table``, checked in table order.

    ``label.format(key)`` names a bad key in the message. Keys outside the
    table are the caller's to refuse or ignore. A default is copied, so the
    caller may change what it gets.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {doc!r}")
    return {key: c.check(doc[key], label.format(key)) if key in doc else copy.deepcopy(c.default)
            for key, c in table.items() if key in doc or c.default is not None}


def _is_list(v: object) -> bool:
    return isinstance(v, list)


def _record(*keys: str) -> Callable[[object], bool]:
    """An object whose ``keys`` are non-empty strings."""
    return lambda r: isinstance(r, dict) and all(nonempty_path(r.get(k)) for k in keys)


#: A manifest's keys; response and feature paths are relative to its directory.
MANIFEST = {
    "subjects": Check(_is_list, "a list of objects with non-empty string 'id' and 'response'", [],
                      Check(_record("id", "response"))),
    "features": Check(_is_list, "a list of objects with non-empty string 'name' and 'path'", [],
                      Check(_record("name", "path"))),
    "blocks": Check(_is_list, "a list of [start, end] integer pairs", [],
                    Check(lambda b: isinstance(b, list) and len(b) == 2 and all(map(is_int, b)))),
    "rois": Check(lambda v: isinstance(v, dict),
                  "an object of non-empty lists of non-negative integer indices", {},
                  Check(lambda ix: isinstance(ix, list) and ix != [], each=Check(lambda i: is_int(i) and i >= 0))),
    **dict.fromkeys(("n_rows", "n_targets"), Check(lambda v: v is None or is_int(v), "null or an integer")),
}


def roi_faults(rois: dict[str, list[int]], n_targets: int) -> list[str]:
    """One message per ROI holding an index at or past ``n_targets``, naming the first."""
    return [f"roi {name!r}: index {next(i for i in idx if i >= n_targets)} outside [0, {n_targets})"
            for name, idx in rois.items() if max(idx) >= n_targets]


def validate_manifest(manifest: dict) -> list[str]:
    """Check the invariants of a manifest that ``read_manifest`` returned; one message per violation.

    Violations are data, not failures: an empty list means the manifest is
    usable for scoring.
    """
    violations: list[str] = []
    blocks = manifest["blocks"]
    for i, (a, b) in enumerate(blocks):
        if b <= a:
            violations.append(f"block {i}: empty or inverted range ({a}, {b})")
    for i in range(1, len(blocks)):
        if blocks[i][0] < blocks[i - 1][1]:
            violations.append(
                f"blocks {i - 1} and {i} overlap or are out of order: "
                f"{tuple(blocks[i - 1])} vs {tuple(blocks[i])}"
            )
        elif blocks[i][0] > blocks[i - 1][1]:
            violations.append(f"gap between block {i - 1} end {blocks[i - 1][1]} and block {i} start {blocks[i][0]}")
    if blocks and blocks[0][0] != 0:
        violations.append(f"block 0 starts at {blocks[0][0]}, expected 0")
    n_rows = manifest.get("n_rows")
    if n_rows is not None and blocks and blocks[-1][1] != n_rows:
        violations.append(f"blocks end at {blocks[-1][1]} but manifest declares {n_rows} rows")
    features = [(f["name"], f.get("sample_rate", 1.0)) for f in manifest["features"]]
    rates = [(name, rate) for name, rate in features if positive_rate(rate)]
    violations += [f"feature {name!r}: sample_rate {rate!r} is not a positive finite number"
                   for name, rate in features if not positive_rate(rate)]
    names = [name for name, _ in features]
    violations += [f"feature name {n!r} is used {names.count(n)} times; a run's report keys its levels by name"
                   for i, n in enumerate(names) if names.count(n) > 1 and names.index(n) == i]
    if len({rate for _, rate in rates}) > 1:
        listed = ", ".join(f"{name!r} at {rate:g} Hz" for name, rate in rates)
        violations.append(f"feature sample rates differ ({listed}); equal row counts at different "
                          "rates cannot be aligned")
    if manifest.get("n_targets") is not None:
        violations += roi_faults(manifest["rois"], manifest["n_targets"])
    return violations
