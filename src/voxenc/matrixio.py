"""Binary (FMX1) and CSV matrix I/O plus dataset manifests.

Container layout, all little-endian:

    bytes 0-3   magic b"FMX1"
    byte  4     dtype code: 0 = float32, 1 = float64
    byte  5     ndim
    next        ndim x uint64 dimension sizes
    rest        row-major payload

The format carries no metadata; sampling rates, block structure and ROI
definitions live in the JSON manifest.

Each array exists once: ``read_matrix`` checks the payload length against
the file size, reads the payload straight into the returned array and
checks finiteness ``_CHECK_BLOCK`` values at a time; ``write_matrix`` writes
the array's own buffer. A pipe has no size, so its payload is read whole
before the check, which costs one copy.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"FMX1"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_MAX_DIM = 2**48  # guards against garbage headers allocating petabytes
# Values per finiteness check in read_matrix: a 64 KB boolean temporary.
_CHECK_BLOCK = 1 << 16


class MatrixParseError(ValueError):
    """Malformed container or CSV; message names the byte offset or row."""


@dataclass
class SubjectRecord:
    subject_id: str
    response_path: str


@dataclass
class FeatureRecord:
    name: str
    path: str
    sample_rate: float


@dataclass
class DatasetManifest:
    """Binds stimuli features, per-subject responses, CV blocks and ROIs.

    ``blocks`` are half-open ``(start_row, end_row)`` ranges at acquisition
    rate; they must be ordered, disjoint, and jointly cover all scan rows.
    """

    subjects: list[SubjectRecord] = field(default_factory=list)
    features: list[FeatureRecord] = field(default_factory=list)
    blocks: list[tuple[int, int]] = field(default_factory=list)
    rois: dict[str, list[int]] = field(default_factory=dict)
    n_rows: int | None = None
    n_targets: int | None = None


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


def read_manifest(path: str | Path) -> DatasetManifest:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    subjects = [SubjectRecord(s["id"], s["response"]) for s in doc.get("subjects", [])]
    features = [FeatureRecord(f["name"], f["path"], f.get("sample_rate", 1.0))
                for f in doc.get("features", [])]
    blocks = [(int(a), int(b)) for a, b in doc.get("blocks", [])]
    rois = {k: [int(i) for i in v] for k, v in doc.get("rois", {}).items()}
    return DatasetManifest(
        subjects=subjects,
        features=features,
        blocks=blocks,
        rois=rois,
        n_rows=doc.get("n_rows"),
        n_targets=doc.get("n_targets"),
    )


def write_manifest(path: str | Path, manifest: DatasetManifest) -> None:
    doc = {
        "subjects": [{"id": s.subject_id, "response": s.response_path} for s in manifest.subjects],
        "features": [{"name": f.name, "path": f.path, "sample_rate": f.sample_rate}
                     for f in manifest.features],
        "blocks": [list(b) for b in manifest.blocks],
        "rois": manifest.rois,
    }
    if manifest.n_rows is not None:
        doc["n_rows"] = manifest.n_rows
    if manifest.n_targets is not None:
        doc["n_targets"] = manifest.n_targets
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def positive_rate(rate: object) -> bool:
    """A sample rate must be a positive, finite int or float (bool excluded)."""
    return type(rate) in (int, float) and 0 < rate < np.inf


def validate_manifest(manifest: DatasetManifest) -> list[str]:
    """Check manifest invariants; returns one message per violation.

    Violations are data, not failures: an empty list means the manifest is
    usable for scoring.
    """
    violations: list[str] = []
    blocks = manifest.blocks
    for i, (a, b) in enumerate(blocks):
        if b <= a:
            violations.append(f"block {i}: empty or inverted range ({a}, {b})")
    for i in range(1, len(blocks)):
        if blocks[i][0] < blocks[i - 1][1]:
            violations.append(
                f"blocks {i - 1} and {i} overlap or are out of order: "
                f"{blocks[i - 1]} vs {blocks[i]}"
            )
        elif blocks[i][0] > blocks[i - 1][1]:
            violations.append(f"gap between block {i - 1} end {blocks[i - 1][1]} and block {i} start {blocks[i][0]}")
    if blocks and blocks[0][0] != 0:
        violations.append(f"block 0 starts at {blocks[0][0]}, expected 0")
    if manifest.n_rows is not None and blocks and blocks[-1][1] != manifest.n_rows:
        violations.append(f"blocks end at {blocks[-1][1]} but manifest declares {manifest.n_rows} rows")
    rates = [(f.name, f.sample_rate) for f in manifest.features if positive_rate(f.sample_rate)]
    violations += [f"feature {f.name!r}: sample_rate {f.sample_rate!r} is not a positive finite number"
                   for f in manifest.features if not positive_rate(f.sample_rate)]
    names = [f.name for f in manifest.features]
    violations += [f"feature name {n!r} is used {names.count(n)} times; a run's report keys its levels by name"
                   for i, n in enumerate(names) if names.count(n) > 1 and names.index(n) == i]
    if len({rate for _, rate in rates}) > 1:
        listed = ", ".join(f"{name!r} at {rate:g} Hz" for name, rate in rates)
        violations.append(f"feature sample rates differ ({listed}); equal row counts at different "
                          "rates cannot be aligned")
    if manifest.n_targets is not None:
        for name, idx in manifest.rois.items():
            bad = [i for i in idx if i < 0 or i >= manifest.n_targets]
            if bad:
                violations.append(f"roi {name!r}: index {bad[0]} outside [0, {manifest.n_targets})")
    return violations
