import numpy as np
import pytest

from voxenc.contrast import delta_layerwise, delta_vs_baseline


class TestDeltas:
    def test_self_difference_zero(self):
        s = np.array([0.1, 0.2, 0.3])
        assert np.all(delta_vs_baseline(s, s) == 0)

    def test_antisymmetric(self):
        a, b = np.array([0.5, 0.1]), np.array([0.2, 0.4])
        assert np.array_equal(delta_vs_baseline(a, b), -delta_vs_baseline(b, a))

    def test_target_mismatch(self):
        with pytest.raises(ValueError, match="target mismatch"):
            delta_vs_baseline(np.array([0.1]), np.array([0.1, 0.2]))

    def test_layerwise_count(self):
        scores = [np.full(4, 0.1 * L) for L in range(6)]
        assert len(delta_layerwise(scores)) == 5

    def test_layerwise_equal_scores_zero(self):
        scores = [np.array([0.3, 0.3])] * 4
        assert all(np.all(d == 0) for d in delta_layerwise(scores))

    def test_telescoping_identity(self):
        rng = np.random.default_rng(0)
        scores = [rng.uniform(-1, 1, 50) for _ in range(6)]
        total = sum(delta_layerwise(scores))
        direct = scores[-1] - scores[0]
        assert np.abs(total - direct).max() < 1e-12

    def test_levels_of_subject_arrays(self):
        # levels x subjects x targets in, subjects x (levels - 1) x targets out, each
        # level delta a strided view with the bits of a plain subtraction
        scores = np.random.default_rng(1).uniform(-1, 1, size=(4, 3, 7))
        deltas = delta_layerwise(scores)
        assert deltas.shape == (3, 3, 7)
        assert np.array_equal(deltas, np.stack([scores[L] - scores[L - 1] for L in range(1, 4)], axis=1))

    def test_level_mismatch(self):
        with pytest.raises(ValueError, match="target mismatch"):
            delta_layerwise([np.zeros(3), np.zeros(3), np.zeros(4)])

    def test_missing_level(self):
        with pytest.raises(ValueError):
            delta_layerwise([np.array([0.1])])
