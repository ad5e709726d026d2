import numpy as np
import pytest

from voxenc import hemo
from voxenc.hemo import (
    HrfKernel,
    ResampleSpec,
    _column_range,
    _normalized,
    convolve_downsample,
    glover_hrf,
)


def _unit_range(data):
    """The per-column [0, 1] map that ``hrf_align`` applies block by block."""
    data = np.asarray(data, dtype=float)
    return _normalized(data, *_column_range(data))


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
        lo = data.min(axis=0)
        span = data.max(axis=0) - lo
        live = span > 0
        want = np.zeros_like(data)
        want[:, live] = (data[:, live] - lo[live]) / span[live]
        out = _unit_range(data)
        assert out.tobytes() == want.tobytes()  # bitwise, signs of zeros included

    def test_input_untouched(self):
        data = np.array([[1.0, 3.0], [2.0, 3.0]])
        _unit_range(data)
        assert data.tolist() == [[1.0, 3.0], [2.0, 3.0]]

    def test_columns_independent(self):
        data = np.array([[0.0, 100.0], [1.0, 300.0], [2.0, 200.0]])
        out = _unit_range(data)
        assert np.allclose(out[:, 0], [0, 0.5, 1])
        assert np.allclose(out[:, 1], [0, 1, 0.5])


class TestGloverHrf:
    def test_peak_normalized(self):
        k = glover_hrf(50.0)
        assert k.samples.max() == pytest.approx(1.0)

    def test_peak_time_on_fine_grid(self):
        k = glover_hrf(1000.0)  # fine grid: oracle evaluation
        t_peak = np.argmax(k.samples) / 1000.0
        assert 4.5 <= t_peak <= 6.5

    def test_undershoot_after_peak(self):
        k = glover_hrf(1000.0)
        peak = int(np.argmax(k.samples))
        assert k.samples[peak:].min() < 0

    @pytest.mark.parametrize("hz", [10.0, 20.0, 50.0, 100.0, 250.0, 1000.0])
    def test_matches_scipy_gamma_kernel(self, hz):
        from scipy.stats import gamma

        t = np.arange(int(round(hemo.DEFAULT_DURATION * hz))) / hz
        ref = gamma.pdf(t, hemo.PEAK_SHAPE) - hemo.UNDERSHOOT_RATIO * gamma.pdf(t, hemo.UNDERSHOOT_SHAPE)
        ref /= ref.max()
        assert np.array_equal(glover_hrf(hz).samples, ref)

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            glover_hrf(5.0)
        with pytest.raises(ValueError):
            glover_hrf(50.0, duration_seconds=10.0)


class TestConvolveDownsample:
    spec = ResampleSpec(50.0, 0.5, 10)

    def _kernel(self):
        return glover_hrf(50.0)

    def test_zero_in_zero_out(self):
        out = convolve_downsample(np.zeros((2000, 3)), self._kernel(), self.spec)
        assert np.allclose(out, 0, atol=1e-14)
        assert out.shape == (10, 3)

    def test_impulse_reads_kernel_at_scan_times(self):
        k = self._kernel()
        data = np.zeros((2000, 1))
        data[0, 0] = 1.0
        out = convolve_downsample(data, k, self.spec)
        expected = k.samples[np.arange(10) * 100]  # 0 s, 2 s, 4 s, ...
        assert np.allclose(out[:, 0], expected, atol=1e-12)

    def test_one_row_per_100_inputs(self):
        out = convolve_downsample(np.zeros((1000, 1)), self._kernel(), ResampleSpec(50.0, 0.5, 10))
        assert out.shape[0] == 10

    def test_beyond_support_errors(self):
        with pytest.raises(ValueError, match="beyond convolved support"):
            convolve_downsample(np.zeros((100, 1)), self._kernel(), ResampleSpec(50.0, 0.5, 100))

    def test_rate_mismatch_errors(self):
        with pytest.raises(ValueError, match="kernel rate 25.0 != spec input_rate 50.0"):
            convolve_downsample(np.zeros((2000, 1)), glover_hrf(25.0), self.spec)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a_mat = rng.normal(size=(2000, 4))
        b_mat = rng.normal(size=(2000, 4))
        k = self._kernel()
        out_sum = convolve_downsample(2.0 * a_mat + 3.0 * b_mat, k, self.spec)
        out_parts = (
            2.0 * convolve_downsample(a_mat, k, self.spec)
            + 3.0 * convolve_downsample(b_mat, k, self.spec)
        )
        assert np.abs(out_sum - out_parts).max() < 1e-12

    def test_shift_by_one_tr(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3000, 2))
        shifted = np.vstack([np.zeros((100, 2)), data[:-100]])
        k = self._kernel()
        out = convolve_downsample(data, k, ResampleSpec(50.0, 0.5, 12))
        out_shift = convolve_downsample(shifted, k, ResampleSpec(50.0, 0.5, 12))
        assert np.allclose(out_shift[1:], out[:-1], atol=1e-10)

    def test_column_order_invariant(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(2000, 3))
        k = self._kernel()
        out = convolve_downsample(data, k, self.spec)
        out_rev = convolve_downsample(data[:, ::-1], k, self.spec)
        assert np.array_equal(out, out_rev[:, ::-1])

    @pytest.mark.parametrize("n_cols", sorted({1, hemo._COLUMN_BLOCK - 1, hemo._COLUMN_BLOCK,
                                               hemo._COLUMN_BLOCK + 1, 2 * hemo._COLUMN_BLOCK + 2,
                                               63, 64, 65, 130}))
    def test_column_blocks_match_whole_array_fft(self, n_cols):
        rng = np.random.default_rng(n_cols)
        data = rng.normal(size=(2000, n_cols))
        k = self._kernel()
        conv_len = data.shape[0] + k.samples.size - 1
        n_fft = 1 << (conv_len - 1).bit_length()
        spec_x = np.fft.rfft(data, n=n_fft, axis=0)
        spec_h = np.fft.rfft(k.samples, n=n_fft)
        conv = np.fft.irfft(spec_x * spec_h[:, None], n=n_fft, axis=0)[:conv_len]
        want = conv[np.arange(10) * 100]
        out = convolve_downsample(data, k, self.spec)
        assert out.tobytes() == want.tobytes()


def test_hrf_align_shapes():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(6000, 5))
    out = hemo.hrf_align(feats, 50.0, n_scans=60)
    assert out.shape == (60, 5)


@pytest.mark.parametrize("n_cols", [1, hemo._COLUMN_BLOCK + 3])
def test_hrf_align_normalizes_per_block_like_whole_array(n_cols):
    rng = np.random.default_rng(n_cols)
    data = rng.normal(size=(6000, n_cols))
    data[:, 0] = 2.5  # a constant column maps to zeros
    want = convolve_downsample(_unit_range(data), glover_hrf(50.0), ResampleSpec(50.0, 0.5, 60))
    assert hemo.hrf_align(data, 50.0, n_scans=60).tobytes() == want.tobytes()
    assert hemo.hrf_align(data, 50.0, n_scans=60, normalize=False).tobytes() == \
        convolve_downsample(data, glover_hrf(50.0), ResampleSpec(50.0, 0.5, 60)).tobytes()
