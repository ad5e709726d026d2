import threading

import numpy as np
import pytest

from voxenc import hemo
from voxenc.hemo import _normalize_rows, glover_hrf, hrf_align, scan_index


def _unit_range(data):
    """The per-column [0, 1] map that ``hrf_align`` applies block by block."""
    rows = np.array(data, dtype=float).T.copy()
    _normalize_rows(rows)
    return rows.T


def _worker_counts(monkeypatch):
    """Yield 1, 2 and 3, with ``hrf_align`` running its column blocks on that many threads."""
    for n_workers in (1, 2, 3):
        monkeypatch.setattr(hemo, "_worker_count", lambda *_: n_workers)
        yield n_workers


class TestMinMaxNormalize:
    def test_affine(self):
        out = _unit_range([[2.0], [4.0], [6.0]])
        assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column(self):
        out = _unit_range([[5.0], [5.0]])
        assert np.all(out == 0)

    def test_idempotent_on_unit_range(self):
        data = np.array([[0.0, 0.25], [0.5, 1.0], [1.0, 0.0]])
        out = _unit_range(data)
        assert np.allclose(out, data)

    def test_constant_columns_mixed_in_match_whole_array_formula(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(50, 7))
        data[:, [0, 3, 6]] = [[-2.5, 0.0, 7.0]]  # constant, including an all-zero column
        data[:, 1] = np.abs(data[:, 1])
        data[::3, 1] = [-0.0, 0.0] * 8 + [-0.0]  # minimum zero, of both signs
        lo = data.min(axis=0)
        span = data.max(axis=0) - lo
        live = span > 0
        want = np.zeros_like(data)
        want[:, live] = (data[:, live] - lo[live]) / span[live]
        out = _unit_range(data)
        assert out.tobytes() == want.tobytes()  # bitwise, signs of zeros included

    def test_input_untouched(self):
        data = np.random.default_rng(5).normal(size=(2000, 2 * hemo._COLUMN_BLOCK + 1))
        before = data.copy()
        hrf_align(data, 50.0, n_scans=10)
        assert data.tobytes() == before.tobytes()

    def test_columns_independent(self):
        data = np.array([[0.0, 100.0], [1.0, 300.0], [2.0, 200.0]])
        out = _unit_range(data)
        assert np.allclose(out[:, 0], [0, 0.5, 1])
        assert np.allclose(out[:, 1], [0, 1, 0.5])


class TestGloverHrf:
    def test_peak_normalized(self):
        assert glover_hrf(50.0).max() == pytest.approx(1.0)

    def test_peak_time_on_fine_grid(self):
        k = glover_hrf(1000.0)  # fine grid: oracle evaluation
        t_peak = np.argmax(k) / 1000.0
        assert 4.5 <= t_peak <= 6.5

    def test_undershoot_after_peak(self):
        k = glover_hrf(1000.0)
        peak = int(np.argmax(k))
        assert k[peak:].min() < 0

    @pytest.mark.parametrize("hz", [10.0, 20.0, 50.0, 100.0, 250.0, 1000.0])
    def test_matches_scipy_gamma_kernel(self, hz):
        from scipy.stats import gamma

        t = np.arange(int(round(hemo.DURATION_SECONDS * hz))) / hz
        ref = gamma.pdf(t, hemo.PEAK_SHAPE) - hemo.UNDERSHOOT_RATIO * gamma.pdf(t, hemo.UNDERSHOOT_SHAPE)
        ref /= ref.max()
        assert np.array_equal(glover_hrf(hz), ref)

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            glover_hrf(5.0)


class TestScanIndex:
    def test_one_scan_per_tr(self):
        assert scan_index(2000, 50.0, 10, 2.0).tolist() == list(range(0, 1000, 100))

    @pytest.mark.parametrize("tr", [0.02, 0.01, -2.0])
    def test_scan_rate_not_below_rate_errors(self, tr):
        with pytest.raises(ValueError, match="below the input rate"):
            scan_index(2000, 50.0, 10, tr)

    def test_beyond_support_errors(self):
        # 100 input rows plus the 1600-sample kernel reach sample 1698: scan 16 reads 1600
        assert scan_index(100, 50.0, 17, 2.0)[-1] == 1600
        with pytest.raises(ValueError, match="scan 99 at sample 9900 beyond convolved support 1699"):
            scan_index(100, 50.0, 100, 2.0)


def _convolve(data, n_scans=10):
    """``hrf_align`` without normalization: causal HRF convolution read at each 2 s scan."""
    return hrf_align(data, 50.0, n_scans, normalize=False)


class TestConvolveDownsample:
    def test_zero_in_zero_out(self):
        out = _convolve(np.zeros((2000, 3)))
        assert np.allclose(out, 0, atol=1e-14)
        assert out.shape == (10, 3)

    def test_impulse_reads_kernel_at_scan_times(self):
        data = np.zeros((2000, 1))
        data[0, 0] = 1.0
        out = _convolve(data)
        expected = glover_hrf(50.0)[np.arange(10) * 100]  # 0 s, 2 s, 4 s, ...
        assert np.allclose(out[:, 0], expected, atol=1e-12)

    def test_one_row_per_100_inputs(self):
        assert _convolve(np.zeros((1000, 1))).shape[0] == 10

    def test_beyond_support_errors(self):
        with pytest.raises(ValueError, match="beyond convolved support"):
            _convolve(np.zeros((100, 1)), n_scans=100)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a_mat = rng.normal(size=(2000, 4))
        b_mat = rng.normal(size=(2000, 4))
        out_sum = _convolve(2.0 * a_mat + 3.0 * b_mat)
        out_parts = 2.0 * _convolve(a_mat) + 3.0 * _convolve(b_mat)
        assert np.abs(out_sum - out_parts).max() < 1e-12

    def test_shift_by_one_tr(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3000, 2))
        shifted = np.vstack([np.zeros((100, 2)), data[:-100]])
        out = _convolve(data, n_scans=12)
        out_shift = _convolve(shifted, n_scans=12)
        assert np.allclose(out_shift[1:], out[:-1], atol=1e-10)

    def test_column_order_invariant(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(2000, 3))
        assert np.array_equal(_convolve(data), _convolve(data[:, ::-1])[:, ::-1])

    @pytest.mark.parametrize("n_cols", sorted({1, hemo._COLUMN_BLOCK - 1, hemo._COLUMN_BLOCK,
                                               hemo._COLUMN_BLOCK + 1, 2 * hemo._COLUMN_BLOCK + 2,
                                               63, 64, 65, 130}))
    def test_column_blocks_match_whole_array_fft(self, n_cols, monkeypatch):
        rng = np.random.default_rng(n_cols)
        data = rng.normal(size=(2000, n_cols))
        k = glover_hrf(50.0)
        conv_len = data.shape[0] + k.size - 1
        n_fft = 1 << (conv_len - 1).bit_length()
        spec_x = np.fft.rfft(data, n=n_fft, axis=0)
        spec_h = np.fft.rfft(k, n=n_fft)
        conv = np.fft.irfft(spec_x * spec_h[:, None], n=n_fft, axis=0)[:conv_len]
        want = conv[np.arange(10) * 100]
        for n_workers in _worker_counts(monkeypatch):
            assert _convolve(data).tobytes() == want.tobytes(), n_workers


def test_hrf_align_shapes():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(6000, 5))
    out = hemo.hrf_align(feats, 50.0, n_scans=60)
    assert out.shape == (60, 5)


@pytest.mark.parametrize("n_cols", [1, hemo._COLUMN_BLOCK + 3, 130])
def test_hrf_align_normalizes_per_block_like_whole_array(n_cols, monkeypatch):
    rng = np.random.default_rng(n_cols)
    data = rng.normal(size=(6000, n_cols))
    data[:, 0] = 2.5  # a constant column maps to zeros
    want = _convolve(_unit_range(data), n_scans=60)
    for n_workers in _worker_counts(monkeypatch):  # 130 columns: blocks finish out of order
        assert hemo.hrf_align(data, 50.0, n_scans=60).tobytes() == want.tobytes(), n_workers


def test_hrf_align_leaves_no_thread_alive(monkeypatch):
    monkeypatch.setattr(hemo, "_worker_count", lambda *_: 2)  # also where the process has one CPU
    before = threading.active_count()
    hrf_align(np.random.default_rng(6).normal(size=(2000, 40)), 50.0, n_scans=10)
    assert threading.active_count() == before


def test_block_error_stops_every_thread():
    done = []

    def make_task():
        def task(item):
            if item == 3:
                raise ValueError("block 3 failed")
            done.append(item)
        return task

    before = threading.active_count()
    with pytest.raises(ValueError, match="block 3 failed"):
        hemo._run_tasks(make_task, range(1000), 3)
    assert threading.active_count() == before
    assert len(done) < 999  # no thread took another block after the error


def test_worker_count_keeps_blocks_in_flight_within_share(monkeypatch):
    monkeypatch.setattr(hemo.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert hemo._worker_count(1, 10, 10**9) == 1  # one block runs inline
    assert hemo._worker_count(3, 10, 10**9) == 3
    assert hemo._worker_count(100, 10, 10**9) == 4
    assert hemo._worker_count(100, 10**6, 3 * 10**6) == 1  # one block may exceed the share
    assert hemo._worker_count(100, 10**6, 6 * 10**6) == 2
