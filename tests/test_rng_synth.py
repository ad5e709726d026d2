import numpy as np
import pytest

from voxenc.rng import CounterRng
from voxenc.synthbench import SynthConfig, build_cohort, even_blocks

from support import gen_linear_dataset


class TestCounterRng:
    def test_deterministic(self):
        a = CounterRng(42).raw(100)
        b = CounterRng(42).raw(100)
        assert np.array_equal(a, b)

    def test_counter_advances(self):
        r = CounterRng(42)
        first = r.raw(10)
        second = r.raw(10)
        assert not np.array_equal(first, second)
        # counter-based: one long draw equals two short draws
        assert np.array_equal(CounterRng(42).raw(20), np.concatenate([first, second]))

    def test_streams_decorrelated(self):
        a = CounterRng(1, stream=0).uniform(10000)
        b = CounterRng(1, stream=1).uniform(10000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_uniform_range_and_moments(self):
        u = CounterRng(7).uniform(200000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.002

    def test_normal_moments(self):
        z = CounterRng(8).normal(200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_shape(self):
        assert CounterRng(0).normal((3, 4)).shape == (3, 4)


class TestEvenBlocks:
    def test_cover_and_disjoint(self):
        blocks = even_blocks(60, 12)
        assert blocks[0][0] == 0 and blocks[-1][1] == 60
        assert all(blocks[i][1] == blocks[i + 1][0] for i in range(11))
        assert all(b - a == 5 for a, b in blocks)

    def test_uneven_rows(self):
        blocks = even_blocks(61, 12)
        assert sum(b - a for a, b in blocks) == 61


class TestGenLinearDataset:
    def test_seed_determinism(self):
        cfg = SynthConfig(n_time_activation=6000, n_scans=60, n_features=4, n_targets=6, seed=5)
        a = gen_linear_dataset(cfg)
        b = gen_linear_dataset(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.response, b.response)
        assert np.array_equal(a.true_weights, b.true_weights)

    def test_seed_changes_data(self):
        cfg1 = SynthConfig(n_time_activation=6000, n_scans=60, seed=1)
        cfg2 = SynthConfig(n_time_activation=6000, n_scans=60, seed=2)
        assert not np.array_equal(gen_linear_dataset(cfg1).response,
                                  gen_linear_dataset(cfg2).response)

    def test_snr_zero_response_independent_of_signal(self):
        cfg = SynthConfig(n_time_activation=6000, n_scans=60, n_features=4, n_targets=6,
                          snr=0.0, seed=3)
        ds = gen_linear_dataset(cfg)
        signal = ds.features_at_tr @ ds.true_weights
        corr = np.corrcoef(signal[:, 0], ds.response[:, 0])[0, 1]
        assert abs(corr) < 0.4

    def test_noiseless_is_exact_linear(self):
        cfg = SynthConfig(n_time_activation=6000, n_scans=60, n_features=4, n_targets=6,
                          snr=None, seed=3)
        ds = gen_linear_dataset(cfg)
        assert np.allclose(ds.response, ds.features_at_tr @ ds.true_weights)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="too short"):
            SynthConfig(n_time_activation=100, n_scans=60)
        with pytest.raises(ValueError):
            SynthConfig(n_targets=0)
        with pytest.raises(ValueError):
            SynthConfig(snr=-1.0)


class TestCohorts:
    def test_null_cohort_shape_and_determinism(self):
        cfg = SynthConfig(n_time_activation=6100, n_scans=60, n_features=6, n_targets=30,
                          n_subjects=6, snr=0.0, seed=11)
        a = build_cohort("null", cfg).scores()
        b = build_cohort("null", cfg).scores()
        assert a.shape == (1, 6, 30)
        assert np.array_equal(a, b)

    def test_null_cohort_mean_near_zero(self):
        cfg = SynthConfig(n_time_activation=12200, n_scans=120, n_features=8, n_targets=100,
                          n_subjects=10, snr=0.0, seed=12)
        g = build_cohort("null", cfg).scores()
        assert abs(g.mean()) < 0.03

    def test_replica_positive_delta(self):
        cfg = SynthConfig(n_time_activation=12200, n_scans=120, n_features=8, n_targets=20,
                          n_subjects=5, snr=1.0, seed=13)
        scores = build_cohort("replica", cfg).scores()
        assert scores.shape == (2, 5, 20)
        delta = scores[1] - scores[0]
        assert delta.mean() > 0.1
