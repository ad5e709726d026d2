import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voxenc import matrixio
from voxenc.matrixio import (
    MatrixParseError,
    read_manifest,
    read_matrix,
    validate_manifest,
    write_json,
    write_matrix,
)

from support import read_through_fifo


def test_binary_roundtrip_f64(tmp_path):
    m = np.array([[1.5, -2.0], [3.25, 4.0], [5.0, 6.125]])
    path = tmp_path / "m.fmx"
    write_matrix(path, m)
    back = read_matrix(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, m)


def test_binary_roundtrip_f32(tmp_path):
    m = np.array([[1.1, 2.2]], dtype=np.float32)
    path = tmp_path / "m.fmx"
    write_matrix(path, m)
    back = read_matrix(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, m)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
              elements=st.floats(-1e300, 1e300, allow_nan=False)))
def test_binary_roundtrip_any_finite(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("rt") / "m.fmx"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)


def test_csv_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_roundtrip_precision(tmp_path):
    m = np.array([[np.pi, 1 / 3], [1e-17, 123456789.123456789]])
    path = tmp_path / "m.csv"
    path.write_text("c0,c1\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m))
    assert np.array_equal(read_matrix(path), m)  # repr() is shortest-exact


def test_payload_length_mismatch(tmp_path):
    path = tmp_path / "bad.fmx"
    write_matrix(path, np.zeros((2, 3)))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 8])  # drop one f64
    with pytest.raises(MatrixParseError, match="payload holds 5"):
        read_matrix(path)


def test_bad_dtype_code(tmp_path):
    path = tmp_path / "bad.fmx"
    write_matrix(path, np.zeros((2, 2)))
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(MatrixParseError, match="dtype code 99"):
        read_matrix(path)


def test_nan_payload_rejected(tmp_path):
    path = tmp_path / "bad.fmx"
    write_matrix(path, np.zeros((2, 2)))
    data = bytearray(path.read_bytes())
    data[-8:] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(MatrixParseError, match="non-finite entry at byte offset"):
        read_matrix(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_non_finite_past_first_check_block_reports_its_offset(tmp_path, dtype):
    data = np.zeros((3, matrixio._CHECK_BLOCK + 5), dtype=dtype)
    data[2, 7] = -np.inf  # flat index 2 * (_CHECK_BLOCK + 5) + 7, in the third check block
    data[2, 9] = np.nan
    path = tmp_path / "bad.fmx"
    write_matrix(path, data)
    offset = 6 + 8 * 2 + (2 * (matrixio._CHECK_BLOCK + 5) + 7) * data.itemsize
    with pytest.raises(MatrixParseError, match=f"non-finite entry at byte offset {offset}$"):
        read_matrix(path)


def test_read_returns_writable_array_owning_its_data(tmp_path):
    path = tmp_path / "m.fmx"
    write_matrix(path, np.arange(6.0).reshape(2, 3))
    back = read_matrix(path)
    assert back.flags.writeable and back.flags.owndata and back.flags.c_contiguous
    back[0, 0] = 7.0
    assert back[0, 0] == 7.0


def test_empty_and_zero_dim_roundtrip(tmp_path):
    for m in (np.zeros((0, 3)), np.array(2.5)):
        path = tmp_path / "m.fmx"
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.shape == m.shape and back.tobytes() == m.tobytes()


def test_write_non_contiguous_views(tmp_path):
    m = np.arange(24.0).reshape(4, 6)
    for view in (m[:, ::2], m.T, m[::-1]):
        path = tmp_path / "m.fmx"
        write_matrix(path, view)
        assert np.array_equal(read_matrix(path), view)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "bad.fmx"
    write_matrix(path, np.zeros((2, 3)))
    path.write_bytes(path.read_bytes() + b"\0\0\0")
    with pytest.raises(MatrixParseError, match=r"payload holds 6 values \(\+3 bytes\), header declares 6"):
        read_matrix(path)


def test_read_from_pipe(tmp_path):
    m = np.arange(12.0).reshape(3, 4)
    write_matrix(tmp_path / "m.fmx", m)
    payload = (tmp_path / "m.fmx").read_bytes()
    back = read_through_fifo(tmp_path / "pipe.fmx", payload, read_matrix)
    assert back.tobytes() == m.tobytes() and back.shape == m.shape
    assert back.flags.writeable
    with pytest.raises(MatrixParseError, match=r"payload holds 4 values \(\+6 bytes\), header declares 12"):
        read_through_fifo(tmp_path / "short.fmx", payload[:6 + 16 + 38], read_matrix)
    csv = read_through_fifo(tmp_path / "pipe.csv", b"alpha,beta\n1,2\n3,4\n", read_matrix)
    assert np.array_equal(csv, [[1.0, 2.0], [3.0, 4.0]])


def test_binary_non_fmx_rejected(tmp_path):
    path = tmp_path / "m.npy"
    path.write_bytes(b"\x93NUMPY\x01\x00\xff\xfe")
    with pytest.raises(MatrixParseError, match="neither FMX1 nor UTF-8 CSV"):
        read_matrix(path)


def test_dimension_overflow(tmp_path):
    import struct

    path = tmp_path / "bad.fmx"
    path.write_bytes(b"FMX1" + struct.pack("<BB", 1, 2) + struct.pack("<QQ", 2**60, 3))
    with pytest.raises(MatrixParseError, match="dimension overflow"):
        read_matrix(path)


def _manifest(**keys):
    """A manifest as ``read_manifest`` returns it: every defaulted key, plus ``keys``."""
    return {"subjects": [], "features": [], "blocks": [], "rois": {}, **keys}


def _feature(name, path, rate):
    return {"name": name, "path": path, "sample_rate": rate}


def test_manifest_12_blocks_of_5_valid():
    m = _manifest(blocks=[[5 * i, 5 * (i + 1)] for i in range(12)], n_rows=60)
    assert validate_manifest(m) == []


def test_manifest_overlap():
    m = _manifest(blocks=[[0, 5], [4, 9]], n_rows=9)
    violations = validate_manifest(m)
    assert len([v for v in violations if "overlap" in v]) == 1


def test_manifest_roi_out_of_range():
    m = _manifest(blocks=[[0, 5]], n_rows=5, n_targets=100, rois={"a1": [1, 999]})
    violations = validate_manifest(m)
    assert any("999" in v for v in violations)


def test_manifest_gap():
    m = _manifest(blocks=[[0, 5], [6, 10]], n_rows=10)
    assert any("gap" in v for v in validate_manifest(m))


@pytest.mark.parametrize("rate", [0, -0.5, float("nan"), float("inf"), "0.5", True, None])
def test_manifest_bad_sample_rate(rate):
    m = _manifest(features=[_feature("mel", "mel.fmx", rate)], blocks=[[0, 5]], n_rows=5)
    assert validate_manifest(m) == [
        f"feature 'mel': sample_rate {rate!r} is not a positive finite number"]


def test_manifest_feature_rates_must_agree():
    feats = [_feature("a", "a.fmx", 0.5), _feature("b", "b.fmx", 1.0), _feature("c", "c.fmx", 0.5)]
    m = _manifest(features=feats, blocks=[[0, 5]], n_rows=5)
    assert validate_manifest(m) == [
        "feature sample rates differ ('a' at 0.5 Hz, 'b' at 1 Hz, 'c' at 0.5 Hz); "
        "equal row counts at different rates cannot be aligned"]
    feats[1]["sample_rate"] = 0.5
    assert validate_manifest(m) == []
    for f, rate in zip(feats, [2, 2.0, 2]):  # an int and a float of one value agree
        f["sample_rate"] = rate
    assert validate_manifest(m) == []


def test_manifest_feature_names_must_differ():
    feats = [_feature(name, f"{i}.fmx", 0.5) for i, name in enumerate(["m", "a", "m", ["x"], "m", ["x"]])]
    m = _manifest(features=feats, blocks=[[0, 5]], n_rows=5)
    assert validate_manifest(m) == [
        "feature name 'm' is used 3 times; a run's report keys its levels by name",
        "feature name ['x'] is used 2 times; a run's report keys its levels by name"]
    for f, name in zip(feats, "mabcde"):
        f["name"] = name
    assert validate_manifest(m) == []


def test_manifest_json_roundtrip(tmp_path):
    m = _manifest(
        subjects=[{"id": "s1", "response": "s1.fmx"}],
        features=[_feature("mel", "mel.fmx", 100.0)],
        blocks=[[0, 5], [5, 10]],
        rois={"a1": [0, 1]},
        n_rows=10,
        n_targets=4,
    )
    path = tmp_path / "m.json"
    write_json(path, m)
    back = read_manifest(path)
    assert back == m


@pytest.mark.parametrize("key, bad, shown", [
    ("subjects", {"id": "sub057", "response": ""}, "{'id': 'sub057', 'response': ''}"),
    ("features", {"name": "layer57"}, "{'name': 'layer57'}"),
    ("blocks", [570, "580"], "[570, '580']"),
])
def test_manifest_list_error_names_only_the_bad_item(tmp_path, key, bad, shown):
    """One bad record of a 102-subject manifest gives one short line, not all 102 records."""
    doc = {
        "subjects": [{"id": f"sub{i:03d}", "response": f"sub{i:03d}.fmx"} for i in range(102)],
        "features": [{"name": f"layer{i}", "path": f"layer{i}.fmx"} for i in range(102)],
        "blocks": [[10 * i, 10 * i + 10] for i in range(102)],
    }
    doc[key][57] = bad
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        read_manifest(path)
    text = matrixio.MANIFEST[key].text
    assert str(err.value) == f"manifest key '{key}' must be {text}, got item 57: {shown}"


@pytest.mark.parametrize("value", [5, "sub000.fmx", None])
def test_manifest_non_list_error_shows_the_value(tmp_path, value):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"subjects": value}))
    with pytest.raises(ValueError, match="^manifest key 'subjects' must be a list of objects with "
                                         f"non-empty string 'id' and 'response', got {value!r}$"):
        read_manifest(path)


@pytest.mark.parametrize("rois, shown", [
    ({"all": [*range(20000), "x"]}, "'all': item 20000: 'x'"),
    ({"a1": [0, 1], "all": 5}, "'all': 5"),
])
def test_manifest_roi_error_names_the_roi_and_shows_only_the_bad_entry(tmp_path, rois, shown):
    """One bad index of a 20000-index ROI gives one short line, not the whole index list."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"rois": rois}))
    with pytest.raises(ValueError) as err:
        read_manifest(path)
    assert str(err.value) == f"manifest key 'rois' must be {matrixio.MANIFEST['rois'].text}, got {shown}"
    assert len(str(err.value)) < 200


def test_manifest_absent_keys_take_fresh_defaults(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"other": 1}')
    read_manifest(path)["subjects"].append({"id": "s1", "response": "s1.fmx"})
    assert read_manifest(path) == {"subjects": [], "features": [], "blocks": [], "rois": {}}
