import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxenc
from voxenc import encode
from voxenc.encode import (
    DEFAULT_LAMBDA_GRID,
    RidgePath,
    _candidates,
    _exact_loo_mse,
    _gram_defect,
    _last_argmin,
    _LooErrorBound,
    _pair_pass,
    _pearson_columns,
    _screen,
    _screen_pays,
    _svd_path,
    brain_score,
    detrend_blocks,
    ridge_solve,
    standardize,
)
from voxenc.synthbench import SynthConfig, build_cohort, even_blocks

from oracles import loo_residuals, ridge_closed_form
from support import gen_linear_dataset


def test_lambda_grid_definition():
    assert len(DEFAULT_LAMBDA_GRID) == 20
    assert DEFAULT_LAMBDA_GRID[0] == pytest.approx(10.0)
    assert DEFAULT_LAMBDA_GRID[-1] == pytest.approx(1e8)
    ratios = DEFAULT_LAMBDA_GRID[1:] / DEFAULT_LAMBDA_GRID[:-1]
    assert np.allclose(ratios, ratios[0])


class TestDetrend:
    def test_exact_linear_trend_removed(self):
        t = np.arange(10.0)
        y = (3 * t + 1)[:, None]
        detrend_blocks(y, [(0, 10)])
        assert np.allclose(y, 0, atol=1e-10)

    def test_residual_orthogonal_to_line(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(20, 3))
        detrend_blocks(y, [(0, 10), (10, 20)])
        for a, b in [(0, 10), (10, 20)]:
            seg = y[a:b]
            t = np.arange(b - a)
            assert np.allclose(seg.mean(axis=0), 0, atol=1e-12)
            assert np.allclose(t @ seg, 0, atol=1e-9)

    def test_blocks_independent(self):
        t = np.arange(5.0)
        col = np.concatenate([2 * t, -7 * t + 3])[:, None]
        detrend_blocks(col, [(0, 5), (5, 10)])
        assert np.allclose(col, 0, atol=1e-10)

    def test_short_block_errors(self):
        with pytest.raises(ValueError, match=">= 3"):
            detrend_blocks(np.zeros((5, 1)), [(0, 2), (2, 5)])

    def test_partial_coverage_errors(self):
        with pytest.raises(ValueError, match="cover"):
            detrend_blocks(np.zeros((10, 1)), [(0, 5)])

    @pytest.mark.parametrize("y", [np.zeros((10, 1), dtype=np.float32), np.zeros(10)])
    def test_needs_float64_2d(self, y):
        with pytest.raises(ValueError, match="float64 2-D"):
            detrend_blocks(y, [(0, 5), (5, 10)])


class TestFolds:
    """``brain_score``'s leave-one-block-out folds."""

    def test_fold_k_tests_block_k_and_trains_on_the_rest_in_order(self):
        blocks = [(5 * i, 5 * (i + 1)) for i in range(12)]
        rng = np.random.default_rng(14)
        X = rng.normal(size=(60, 3))
        Y = rng.normal(size=(60, 4)) + X @ rng.normal(size=(3, 4))
        sm, = brain_score(X, Y, blocks, [slice(None)])
        assert sm.r_per_fold.shape == (12, 4)
        for k, (a, b) in enumerate(blocks):
            tr = np.concatenate([np.arange(0, a), np.arange(b, 60)])
            Xtr, Xte, _, _ = standardize(X[tr], X[a:b])
            Ytr, Yte, _, _ = standardize(Y[tr], Y[a:b])
            r, _ = _pearson_columns(Yte, Xte @ ridge_solve(Xtr, Ytr).weights)
            assert r.tobytes() == sm.r_per_fold[k].tobytes()

    def test_minimum_three_blocks(self):
        rng = np.random.default_rng(15)
        X, Y = rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
        sm, = brain_score(X, Y, [(0, 3), (3, 6), (6, 9)], [slice(None)])
        assert sm.r_per_fold.shape[0] == 3
        with pytest.raises(ValueError, match="need >= 3 blocks for leave-one-block-out, got 2"):
            brain_score(X, Y, [(0, 3), (3, 9)], [slice(None)])


class TestStandardize:
    def test_two_point(self):
        out, _, mean, std = standardize(np.array([[1.0], [3.0]]))
        assert np.allclose(out[:, 0], [-1, 1])
        assert mean[0] == 2.0 and std[0] == 1.0

    def test_apply_at_train_mean(self):
        train = np.array([[1.0], [3.0], [5.0]])
        _, applied, _, _ = standardize(train, np.array([[3.0]]))
        assert applied[0, 0] == 0.0

    def test_zero_variance_guard(self):
        out, applied, _, _ = standardize(np.full((4, 1), 7.0), np.array([[9.0]]))
        assert np.all(out == 0)
        assert np.all(applied == 0)

    @pytest.mark.parametrize("shape", [(733, 2048), (110, 1000), (110, 16), (9, 5), (733, 1)])
    def test_std_bitwise_equals_numpy(self, shape):
        """``std`` comes from the deviations written in place, with ``np.std``'s bits."""
        rng = np.random.default_rng(17)
        train = rng.normal(3.0, 2.0, size=shape) * rng.uniform(0.1, 10.0, shape[1])
        train[:, ::7] = 4.25  # constant columns
        test = rng.normal(size=(5, shape[1]))
        mean, std = train.mean(axis=0), train.std(axis=0)
        safe = np.where(std > 0, std, 1.0)
        want_train, want_test = (train - mean) / safe, (test - mean) / safe
        want_train[:, std == 0] = want_test[:, std == 0] = 0.0
        out, applied, got_mean, got_std = standardize(train.copy(), test)
        assert got_std.tobytes() == std.tobytes()
        assert got_mean.tobytes() == mean.tobytes()
        assert out.tobytes() == want_train.tobytes()
        assert applied.tobytes() == want_test.tobytes()


class TestRidgeSolve:
    def test_matches_dense_oracle_single_lambda(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 6))
        w_true = rng.normal(size=(6, 3))
        Y = X @ w_true
        fit = ridge_solve(X, Y, np.array([10.0]))
        oracle = ridge_closed_form(X, Y, 10.0)
        assert np.abs(fit.weights - oracle).max() < 1e-10

    def test_chosen_lambda_in_grid(self):
        rng = np.random.default_rng(2)
        fit = ridge_solve(rng.normal(size=(30, 5)), rng.normal(size=(30, 8)))
        assert np.all(np.isin(fit.chosen_lambda, DEFAULT_LAMBDA_GRID))

    def test_noise_targets_prefer_large_lambda(self):
        # pure-noise targets: LOO should prefer the strongest shrinkage far
        # more often than the 1/20 chance rate
        rng = np.random.default_rng(3)
        hits = 0
        n_draws = 50
        for _ in range(n_draws):
            X = rng.normal(size=(24, 6))
            y = rng.normal(size=(24, 1))
            fit = ridge_solve(X, y)
            if fit.chosen_lambda[0] == DEFAULT_LAMBDA_GRID[-1]:
                hits += 1
        assert hits / n_draws > 0.5

    def test_non_finite_rejected(self):
        X = np.ones((5, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ridge_solve(X, np.ones((5, 1)))

    def test_loo_identity_closed_form(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 4))
        Y = rng.normal(size=(15, 2))
        for lam in (10.0, 1e4):
            loo = loo_residuals(X, Y, lam)
            explicit = np.empty_like(loo)
            for i in range(15):
                mask = np.arange(15) != i
                w = ridge_closed_form(X[mask], Y[mask], lam)
                explicit[i] = Y[i] - X[i] @ w
            assert np.abs(loo - explicit).max() < 1e-6

    def test_scale_equivariant_selection(self):
        # standardization absorbs target scale, so the selected lambda is
        # unchanged when Y is multiplied by a positive constant
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 6))
        Y = rng.normal(size=(30, 4)) + X @ rng.normal(size=(6, 4))
        Ys, _, _, _ = standardize(Y.copy())  # standardize overwrites its train array
        l1 = ridge_solve(X, Ys).chosen_lambda
        Ys2, _, _, _ = standardize(7.5 * Y)
        l2 = ridge_solve(X, Ys2).chosen_lambda
        assert np.allclose(l1, l2)

    @staticmethod
    def _oracle_lambda(X, Y):
        # mean squared closed-form LOO residual per target and grid value;
        # argmin with ties going to the larger lambda
        mse = np.array([np.mean(loo_residuals(X, Y, lam) ** 2, axis=0)
                        for lam in DEFAULT_LAMBDA_GRID])
        best = mse.shape[0] - 1 - np.argmin(mse[::-1], axis=0)
        return DEFAULT_LAMBDA_GRID[best]

    def test_selection_matches_oracle_multi_chunk(self):
        rng = np.random.default_rng(12)
        n_targets = 2 * encode._CHUNK + 37
        X = rng.normal(size=(60, 10))
        snr = rng.uniform(0.0, 2.0, n_targets)
        Y = rng.normal(size=(60, n_targets)) + (X @ rng.normal(size=(10, n_targets))) * snr
        fit = ridge_solve(X, Y)
        oracle = self._oracle_lambda(X, Y)
        assert np.array_equal(fit.chosen_lambda, oracle)
        assert len(np.unique(oracle)) > 3  # the oracle's choices spread over the grid

    def test_selection_matches_oracle_p_greater_than_n(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(25, 40))
        Y = rng.normal(size=(25, 50)) + X @ rng.normal(size=(40, 50)) * 0.2
        assert np.array_equal(ridge_solve(X, Y).chosen_lambda, self._oracle_lambda(X, Y))

    def test_selection_zero_target_picks_largest_lambda(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 5))
        Y = rng.normal(size=(30, 4)) + X @ rng.normal(size=(5, 4))
        Y[:, 2] = 0.0
        fit = ridge_solve(X, Y)
        assert np.array_equal(fit.chosen_lambda, self._oracle_lambda(X, Y))
        assert fit.chosen_lambda[2] == DEFAULT_LAMBDA_GRID[-1]
        assert np.all(fit.weights[:, 2] == 0.0)

    def test_one_dimensional_target(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(30, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=30)
        f1 = ridge_solve(X, y)
        f2 = ridge_solve(X, y[:, None])
        assert np.array_equal(f1.weights, f2.weights)
        assert np.array_equal(f1.chosen_lambda, f2.chosen_lambda)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ridge_solve needs"):
            ridge_solve(np.ones((5, 2)), np.ones((4, 1)))

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError, match="p >= 1"):
            ridge_solve(np.ones((5, 0)), np.ones((5, 1)))

    @pytest.mark.parametrize("grid,message", [
        ([np.nan, 10.0], "value nan at index 0"),
        ([10.0, -5.0], "value -5.0 at index 1"),
        ([10.0, 0.0], "value 0.0 at index 1"),
        ([np.inf], "value inf at index 0"),
        ([], "non-empty 1-D lambda grid; got shape \\(0,\\)"),
        ([[10.0]], "non-empty 1-D lambda grid; got shape \\(1, 1\\)"),
    ])
    def test_bad_grid_rejected(self, grid, message):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match=message):
            ridge_solve(rng.normal(size=(20, 3)), rng.normal(size=(20, 2)), grid)


@settings(max_examples=60, deadline=None)
@given(g=st.integers(1, 8), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       width=st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
def test_candidates_rule(g, m, seed, width):
    """``_candidates`` keeps within ``among`` every lambda that could hold the smallest value."""
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(g, m))
    b = width * rng.exponential(size=(g, m))
    special = rng.random((g, m)) < 0.1
    S[special] = rng.choice([np.inf, -np.inf, np.nan], size=np.count_nonzero(special))
    b[rng.random((g, m)) < 0.05] = np.inf
    among = rng.random((g, m)) < 0.7
    cand = _candidates(S, b, among)
    assert not (cand & ~among).any()
    with np.errstate(invalid="ignore"):
        wild = (~np.isfinite(S + b) & among).any(axis=0)
        lowest = np.where(among, S, np.inf).min(axis=0)
        # every lambda whose S lies within b of the minimum
        assert cand[(S - b <= lowest) & among & ~wild].all()
        # any values within b of S take their minimum at a candidate
        T = np.where(among, S + rng.uniform(-1.0, 1.0, (g, m)) * b, np.inf)
    for j in np.flatnonzero(among.any(axis=0) & ~wild):
        assert cand[T[:, j] == T[:, j].min(), j].all()
    assert np.array_equal(cand[:, wild], among[:, wild])


def _exact_choice(X, Y, grid):
    """Each target's grid index from the exact kernel run over every lambda, chunk by chunk.

    The chunk size is read when called, so it follows a test that shrinks ``encode._CHUNK``.
    """
    U, _, _, D, W = _svd_path(X, grid)
    UtY = U.T @ Y
    every = np.arange(len(grid))
    chunk = encode._CHUNK
    return np.concatenate([
        _last_argmin(_exact_loo_mse(U, D, W, Y[:, a:a + chunk], UtY[:, a:a + chunk], every))
        for a in range(0, Y.shape[1], chunk)])


def _assert_screen_exact(X, Y, grid=DEFAULT_LAMBDA_GRID):
    """ridge_solve takes the screened route here and picks the exact kernel's lambdas.

    Returns the number of nonzero targets the screen left more than one
    candidate, which the exact kernel then settled.
    """
    assert _screen_pays(X.shape[0], min(X.shape))
    fit = ridge_solve(X, Y, grid)
    assert np.array_equal(fit.chosen_lambda, grid[_exact_choice(X, Y, grid)])
    path = RidgePath(X, grid)
    UtY = path.U.T @ Y
    unsettled = 0
    chunk = encode._CHUNK
    for a in range(0, Y.shape[1], chunk):
        Yc = Y[:, a:a + chunk]
        cand = _screen(path, Yc, UtY[:, a:a + chunk])
        unsettled += np.count_nonzero((cand.sum(axis=0) > 1) & Yc.any(axis=0))
    return unsettled


class TestScreenedSelection:
    """The screened route (n >> p) must choose exactly what the exact kernel chooses."""

    @staticmethod
    def _design(n=110, p=8, seed=0):
        rng = np.random.default_rng(seed)
        X, _, _, _ = standardize(rng.normal(size=(n, p)))
        return X, rng

    def test_replica_subject_fold_solves(self):
        cfg = SynthConfig(n_time_activation=12200, n_scans=120, n_features=8, n_targets=1000,
                          n_subjects=1, seed=3)
        cohort = build_cohort("replica", cfg)
        blocks = even_blocks(cfg.n_scans, cfg.n_blocks)
        y, _ = next(cohort.subjects())
        y = np.array(y, dtype=np.float64)
        detrend_blocks(y, blocks)
        for X in (cohort.features[0], np.hstack(cohort.features)):  # p = 8 and 16
            for a, b in blocks:
                tr = np.r_[0:a, b:cfg.n_scans]
                Xtr, _, _, _ = standardize(X[tr])
                Ytr, _, _, _ = standardize(y[tr])
                _assert_screen_exact(Xtr, Ytr)

    def test_duplicate_grid_values(self):
        X, rng = self._design()
        Y = rng.normal(size=(110, 300)) + X @ rng.normal(size=(8, 300)) * rng.uniform(0, 1, 300)
        grid = np.repeat(DEFAULT_LAMBDA_GRID[::2], 2)
        assert _assert_screen_exact(X, Y, grid) == 300  # every target needs the exact pass

    @pytest.mark.parametrize("spacing", [1e-9, 1e-14])
    def test_near_tie_grid(self, spacing):
        # at 1e-14 the LOO errors of neighbouring lambdas differ by less than
        # their rounding errors: a screen without the bound picks wrongly here
        X, rng = self._design(seed=1)
        Y = rng.normal(size=(110, 300)) + X @ rng.normal(size=(8, 300)) * rng.uniform(0, 1, 300)
        grid = 100.0 * (1.0 + spacing * np.arange(20))
        assert _assert_screen_exact(X, Y, grid) > 0

    def test_all_zero_targets(self):
        X, rng = self._design(seed=2)
        Y = rng.normal(size=(110, 50))
        Y[:, ::3] = 0.0
        assert _assert_screen_exact(X, Y) == 0
        assert _assert_screen_exact(X, np.zeros((110, 4))) == 0
        assert np.all(ridge_solve(X, np.zeros((110, 4))).chosen_lambda == DEFAULT_LAMBDA_GRID[-1])

    def test_targets_in_span_of_features(self):
        X, rng = self._design(seed=3)
        _assert_screen_exact(X, X @ rng.normal(size=(8, 40)))

    def test_single_target(self):
        X, rng = self._design(p=16, seed=4)
        _assert_screen_exact(X, rng.normal(size=(110, 1)) + X[:, :1])

    def test_multi_chunk_target_count(self):
        X, rng = self._design(n=60, p=10, seed=5)
        n_targets = 2 * encode._CHUNK + 37
        Y = rng.normal(size=(60, n_targets)) + X @ rng.normal(size=(10, n_targets)) * rng.uniform(
            0, 2, n_targets)
        _assert_screen_exact(X, Y)

    def test_wide_shape_keeps_exact_route(self):
        assert not _screen_pays(733, 500)
        assert _screen_pays(110, 16) and _screen_pays(110, 8)

    def test_selection_peak_memory(self):
        """ridge_solve's traced peak at n = 110, p = 16, 1000 targets stays at or below
        1,745,152 bytes: the previous selection, the exact kernel over every
        lambda, peaked there on the same inputs (numpy 2.4, x86-64). The screen's
        buffers are sized to the exact kernel's (k + n + grid) x _CHUNK floats;
        it measured 1,402,288.
        """
        rng = np.random.default_rng(0)
        X = rng.normal(size=(110, 16))
        Y = rng.normal(size=(110, 1000)) + X @ rng.normal(size=(16, 1000)) * rng.uniform(0, 1, 1000)
        ridge_solve(X, Y)  # first-call allocations are not the solve's
        tracemalloc.start()
        try:
            ridge_solve(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_745_152


def _assert_float32_exact(X, Y, grid=DEFAULT_LAMBDA_GRID):
    """ridge_solve takes the float32 route here and picks the exact kernel's lambdas.

    Returns how many nonzero targets the float32 pass left more than one
    candidate, and how many of those the float64 confirm on column subsets
    still left more than one, which the whole-chunk exact kernel then settled.
    """
    assert not _screen_pays(X.shape[0], min(X.shape))
    fit = ridge_solve(X, Y, grid)
    assert np.array_equal(fit.chosen_lambda, grid[_exact_choice(X, Y, grid)])
    U, _, _, D, W = _svd_path(X, grid)
    UtY = U.T @ Y
    after_float32 = after_columns = 0
    chunk = encode._CHUNK
    for a in range(0, Y.shape[1], chunk):
        Yc, UtYc = Y[:, a:a + chunk], UtY[:, a:a + chunk]
        bound = _LooErrorBound(U, D, W, Yc, UtYc, _gram_defect(U))
        cand = _pair_pass(U, D, W, Yc, UtYc, bound, bound.live, np.float32)
        after_float32 += np.count_nonzero((cand.sum(axis=0) > 1) & Yc.any(axis=0))
        cand = _pair_pass(U, D, W, Yc, UtYc, bound, cand, np.float64)
        after_columns += np.count_nonzero((cand.sum(axis=0) > 1) & Yc.any(axis=0))
    return after_float32, after_columns


class TestFloat32Selection:
    """The float32 route (k^2 >= 4n) must choose exactly what the exact kernel chooses."""

    @staticmethod
    def _design(n=733, p=500, seed=0):
        rng = np.random.default_rng(seed)
        X, _, _, _ = standardize(rng.normal(size=(n, p)))
        return X, rng

    @staticmethod
    def _targets(X, rng, m, snr_max=1.0):
        """A quarter pure noise, the rest with signal of random strength, as in a wide scoring run."""
        snr = rng.uniform(0.05, snr_max, m)
        snr[: m // 4] = 0.0
        signal = X @ rng.normal(size=(X.shape[1], m))
        Y = signal / signal.std(axis=0) * np.sqrt(snr) + rng.normal(size=(X.shape[0], m))
        return standardize(Y)[0]

    def test_wide_fold_solve(self):
        X, rng = self._design()
        after_float32, after_columns = _assert_float32_exact(X, self._targets(X, rng, 600))
        assert after_float32 > 0 and after_columns == 0

    def test_p_greater_than_n(self):
        X, rng = self._design(n=150, p=260, seed=1)
        _assert_float32_exact(X, self._targets(X, rng, 400))

    def test_duplicate_grid_values(self):
        X, rng = self._design(n=120, p=80, seed=2)
        Y = self._targets(X, rng, 300)
        grid = np.repeat(DEFAULT_LAMBDA_GRID[::2], 2)
        assert _assert_float32_exact(X, Y, grid) == (300, 300)  # every target needs the chunk's bits

    @pytest.mark.parametrize("spacing,settled_on_columns", [(1e-9, True), (1e-14, False)])
    def test_near_tie_grid(self, spacing, settled_on_columns):
        # at 1e-9 neighbouring LOO errors differ by far less than float32's
        # rounding error but more than float64's; at 1e-14 by less than either
        X, rng = self._design(n=120, p=80, seed=3)
        Y = self._targets(X, rng, 300)
        grid = 100.0 * (1.0 + spacing * np.arange(20))
        after_float32, after_columns = _assert_float32_exact(X, Y, grid)
        assert after_float32 == 300
        assert (after_columns == 0) == settled_on_columns

    def test_all_zero_targets(self):
        X, rng = self._design(n=120, p=80, seed=4)
        Y = self._targets(X, rng, 60)
        Y[:, ::3] = 0.0
        _assert_float32_exact(X, Y)
        assert _assert_float32_exact(X, np.zeros((120, 4))) == (0, 0)
        assert np.all(ridge_solve(X, np.zeros((120, 4))).chosen_lambda == DEFAULT_LAMBDA_GRID[-1])

    def test_targets_in_span_of_features(self):
        X, rng = self._design(n=120, p=80, seed=5)
        _assert_float32_exact(X, X @ rng.normal(size=(80, 40)))

    def test_single_target(self):
        X, rng = self._design(n=120, p=80, seed=6)
        _assert_float32_exact(X, rng.normal(size=(120, 1)) + X[:, :1])

    @pytest.mark.parametrize("scale", [1e25, 1e-25])
    def test_targets_beyond_float32_range(self, scale):
        # squares of 1e25 overflow float32 and those of 1e-25 underflow it:
        # those targets keep every lambda after the float32 pass
        X, rng = self._design(n=120, p=80, seed=7)
        Y = self._targets(X, rng, 40)
        Y[:, :10] *= scale
        _assert_float32_exact(X, Y)
        U, _, _, D, W = _svd_path(X, DEFAULT_LAMBDA_GRID)
        bound = _LooErrorBound(U, D, W, Y, U.T @ Y, _gram_defect(U))
        cand = _pair_pass(U, D, W, Y, U.T @ Y, bound, bound.live, np.float32)
        assert cand[:, :10].all()

    def test_multi_chunk_target_count(self):
        X, rng = self._design(n=90, p=60, seed=8)
        _assert_float32_exact(X, self._targets(X, rng, 2 * encode._CHUNK + 37))

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(6, 60), p=st.integers(1, 80), m=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1), log_scale=st.sampled_from([-30, -3, 0, 3, 30]))
    def test_choices_equal_exact_kernel(self, n, p, m, seed, log_scale):
        """Either side of k^2 = 4n, both routes pick the exact kernel's lambdas."""
        rng = np.random.default_rng(seed)
        X = standardize(rng.normal(size=(n, p)))[0]
        Y = rng.normal(size=(n, m)) + X @ rng.normal(size=(p, m)) * rng.uniform(0, 1, m)
        Y *= 10.0 ** log_scale
        assert np.array_equal(ridge_solve(X, Y).chosen_lambda,
                              DEFAULT_LAMBDA_GRID[_exact_choice(X, Y, DEFAULT_LAMBDA_GRID)])

    def test_selection_peak_memory(self):
        """ridge_solve's traced peak at n = 733, p = 500, 1024 targets stays at or
        below 19,570,632 bytes: the previous selection, the exact kernel over
        every lambda, peaked there on the same inputs (numpy 2.4, x86-64). The
        float32 pass's buffers are sized to the exact kernel's (k + n + grid) x
        _CHUNK floats; it measured 18,110,921 bytes with one GEMM per block of
        (lambda, target) pairs and 18,108,953 with one per lambda.
        """
        X, rng = self._design()
        Y = rng.normal(size=(733, 1024)) + X @ rng.normal(size=(500, 1024)) * rng.uniform(0, 0.1, 1024)
        Y = standardize(Y)[0]
        ridge_solve(X, Y)  # first-call allocations are not the solve's
        tracemalloc.start()
        try:
            ridge_solve(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 19_570_632


def _assert_bracket(X, Y, grid=DEFAULT_LAMBDA_GRID):
    """The bracket's floor never exceeds the float64 kernel's value, and the float32 pass
    keeps live, and a candidate, the lambda the kernel over every lambda picks.

    Returns the share of (target, lambda) pairs the bracket left live.
    """
    U, _, _, D, W = _svd_path(X, grid)
    UtY = U.T @ Y
    every = np.arange(len(grid))
    live = 0
    chunk = encode._CHUNK
    for a in range(0, Y.shape[1], chunk):
        Yc, UtYc = Y[:, a:a + chunk], UtY[:, a:a + chunk]
        bound = _LooErrorBound(U, D, W, Yc, UtYc, _gram_defect(U))
        exact = _exact_loo_mse(U, D, W, Yc, UtYc, every)
        assert np.all(bound.floor <= exact)
        cand = _pair_pass(U, D, W, Yc, UtYc, bound, bound.live, np.float32)
        picked = (_last_argmin(exact), np.arange(Yc.shape[1]))
        assert bound.live[picked].all() and cand[picked].all()
        assert not (cand & ~bound.live).any()
        live += np.count_nonzero(bound.live)
    return live / (len(grid) * Y.shape[1])


class TestBracket:
    """Before the float32 pass the wide route rules out lambdas by a norm bracket:
    its floor lies below the float64 kernel's value, so no lambda that could win is lost."""

    _design = staticmethod(TestFloat32Selection._design)
    _targets = staticmethod(TestFloat32Selection._targets)

    def test_wide_fold_rules_out_half_the_pairs(self):
        # a later change must not quietly turn the pruning off
        X, rng = self._design()
        assert _assert_bracket(X, self._targets(X, rng, 600)) <= 0.5

    # down to lambda = 1e-8 the residual of a target in span(U) shrinks to
    # rounding level, below the cancellation in ||y||^2 - ||c||^2
    _GRIDS = [DEFAULT_LAMBDA_GRID, np.logspace(-8.0, 8.0, 20)]

    @pytest.mark.parametrize("grid", _GRIDS)
    def test_p_greater_than_n(self, grid):
        # k = n: U is square and every target lies in its span
        X, rng = self._design(n=150, p=260, seed=11)
        _assert_bracket(X, self._targets(X, rng, 300), grid)

    @pytest.mark.parametrize("grid", _GRIDS)
    def test_targets_in_span_of_features(self, grid):
        X, rng = self._design(n=120, p=80, seed=12)
        _assert_bracket(X, X @ rng.normal(size=(80, 60)), grid)

    def test_all_zero_targets(self):
        X, rng = self._design(n=120, p=80, seed=13)
        Y = self._targets(X, rng, 60)
        Y[:, ::3] = 0.0
        _assert_bracket(X, Y)
        assert _assert_bracket(X, np.zeros((120, 4))) == 1.0

    @pytest.mark.parametrize("scale", [1e30, 1e-30])
    def test_targets_at_extreme_scales(self, scale):
        X, rng = self._design(n=120, p=80, seed=14)
        Y = self._targets(X, rng, 40)
        Y[:, :10] *= scale
        _assert_bracket(X, Y)
        _assert_bracket(X, Y * scale)

    def test_duplicate_grid_values(self):
        X, rng = self._design(n=120, p=80, seed=15)
        _assert_bracket(X, self._targets(X, rng, 300), np.repeat(DEFAULT_LAMBDA_GRID[::2], 2))

    @pytest.mark.parametrize("spacing", [1e-9, 1e-14])
    def test_near_tie_grid(self, spacing):
        X, rng = self._design(n=120, p=80, seed=16)
        _assert_bracket(X, self._targets(X, rng, 300), 100.0 * (1.0 + spacing * np.arange(20)))

    def test_columns_off_orthonormal(self):
        # the norm identity assumes U^T U = I; with equal weights (min W = max W)
        # only the defect term keeps the floor below a U orthonormal to about 1e-5
        X, rng = self._design(n=120, p=80, seed=18)
        U, _, _, D, W = _svd_path(X, DEFAULT_LAMBDA_GRID)
        U += 1e-6 * rng.normal(size=U.shape)
        W = np.full_like(W, 1.0 / 120)
        Y = self._targets(X, rng, 100)
        UtY = U.T @ Y
        assert _gram_defect(U) >= np.linalg.norm(U.T @ U - np.eye(80), 2)
        exact = _exact_loo_mse(U, D, W, Y, UtY, np.arange(len(DEFAULT_LAMBDA_GRID)))
        assert np.all(_LooErrorBound(U, D, W, Y, UtY, _gram_defect(U)).floor <= exact)

    def test_one_lambda_grid(self):
        X, rng = self._design(n=120, p=80, seed=17)
        Y = self._targets(X, rng, 50)
        assert _assert_bracket(X, Y, np.array([1e3])) == 1.0
        assert np.all(ridge_solve(X, Y, np.array([1e3])).chosen_lambda == 1e3)

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(6, 60), p=st.integers(1, 80), m=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1), log_scale=st.sampled_from([-30, -3, 0, 3, 30]))
    def test_floor_below_kernel(self, n, p, m, seed, log_scale):
        rng = np.random.default_rng(seed)
        X = standardize(rng.normal(size=(n, p)))[0]
        Y = rng.normal(size=(n, m)) + X @ rng.normal(size=(p, m)) * rng.uniform(0, 1, m)
        _assert_bracket(X, Y * 10.0 ** log_scale)


class TestSmallChunks:
    """With ``_CHUNK`` = 8 the float32 pass runs one (lambda, target) pair per SGEMM and the
    confirm on columns two or three per DGEMM, so every lambda's pairs are split across
    blocks; the choices must still be the exact kernel's."""

    _design = staticmethod(TestFloat32Selection._design)
    _targets = staticmethod(TestFloat32Selection._targets)

    @pytest.fixture(autouse=True)
    def small_chunk(self, monkeypatch):
        monkeypatch.setattr(encode, "_CHUNK", 8)
        self.widths = set()
        rule = encode._pass_width

        def spy(n, k, g, m, dtype):
            width = rule(n, k, g, m, dtype)
            self.widths.add((np.dtype(dtype).name, width))
            return width

        monkeypatch.setattr(encode, "_pass_width", spy)

    def test_wide_fold_solve(self):
        X, rng = self._design()
        after_float32, after_columns = _assert_float32_exact(X, self._targets(X, rng, 48))
        assert after_float32 > 0 and after_columns == 0
        assert {w for d, w in self.widths if d == "float32"} == {1}
        assert 1 < max(w for d, w in self.widths if d == "float64") <= 3

    def test_p_greater_than_n(self):
        X, rng = self._design(n=150, p=260, seed=1)
        _assert_float32_exact(X, self._targets(X, rng, 40))
        _assert_bracket(X, self._targets(X, rng, 40))

    def test_duplicate_grid_values(self):
        X, rng = self._design(n=120, p=80, seed=2)
        grid = np.repeat(DEFAULT_LAMBDA_GRID[::2], 2)
        assert _assert_float32_exact(X, self._targets(X, rng, 20), grid) == (20, 20)

    @pytest.mark.parametrize("spacing,settled_on_columns", [(1e-9, True), (1e-14, False)])
    def test_near_tie_grid(self, spacing, settled_on_columns):
        X, rng = self._design(n=120, p=80, seed=3)
        Y = self._targets(X, rng, 20)
        grid = 100.0 * (1.0 + spacing * np.arange(20))
        after_float32, after_columns = _assert_float32_exact(X, Y, grid)
        assert after_float32 == 20
        assert (after_columns == 0) == settled_on_columns
        _assert_bracket(X, Y, grid)

    def test_all_zero_targets(self):
        X, rng = self._design(n=120, p=80, seed=4)
        Y = self._targets(X, rng, 30)
        Y[:, ::3] = 0.0
        _assert_float32_exact(X, Y)
        assert _assert_bracket(X, np.zeros((120, 12))) == 1.0

    @pytest.mark.parametrize("scale", [1e25, 1e-25])
    def test_targets_beyond_float32_range(self, scale):
        X, rng = self._design(n=120, p=80, seed=7)
        Y = self._targets(X, rng, 24)
        Y[:, ::2] *= scale
        _assert_float32_exact(X, Y)
        _assert_bracket(X, Y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 3, 40, None])
    def test_pair_values_within_bound(self, monkeypatch, dtype, width):
        """Every S that ``_pair_pass`` hands ``_candidates`` in a wide-route ``ridge_solve`` lies
        within the b it is given of the chunk's kernel value, at every pair among its lambdas:
        b = b32 + b64 in float32, as the float32 pass assumes, and 2 b64 in float64, as the
        confirm on columns does. Passes are ``width`` targets wide (None: the width rule's),
        at ``_CHUNK`` 8 and 1024."""
        X, rng = self._design(n=120, p=80, seed=19)
        Y = self._targets(X, rng, 40)
        if width is not None:
            monkeypatch.setattr(encode, "_pass_width", lambda n, k, g, m, dt: min(m, width))
        calls, checked = [], []
        pair_pass, candidates = encode._pair_pass, encode._candidates

        def pass_spy(U, D, W, Yc, UtYc, bound, at, dt):
            targets = np.flatnonzero((np.count_nonzero(at, axis=0) > 1) & Yc.any(axis=0))
            calls.append((dt, _exact_loo_mse(U, D, W, Yc, UtYc, np.arange(len(D)))[:, targets]))
            return pair_pass(U, D, W, Yc, UtYc, bound, at, dt)

        def candidates_spy(S, b, among):
            dt, kernel = calls[-1]
            if dt is dtype:
                assert np.all(np.abs(S - kernel)[among] <= b[among])
                checked.append(np.count_nonzero(among))
            return candidates(S, b, among)

        monkeypatch.setattr(encode, "_pair_pass", pass_spy)
        monkeypatch.setattr(encode, "_candidates", candidates_spy)
        for chunk in (8, 1024):
            monkeypatch.setattr(encode, "_CHUNK", chunk)
            checked.clear()
            assert np.array_equal(ridge_solve(X, Y).chosen_lambda,
                                  DEFAULT_LAMBDA_GRID[_exact_choice(X, Y, DEFAULT_LAMBDA_GRID)])
            assert sum(checked) > 0


def pearson(y_true, y_pred):
    """``brain_score``'s correlation of one pair of series."""
    r, flagged = _pearson_columns(np.asarray(y_true)[:, None], np.asarray(y_pred)[:, None])
    return float(r[0]), bool(flagged[0])


class TestPearson:
    def test_self_correlation(self):
        r, flagged = pearson(np.array([1.0, 2, 3]), np.array([1.0, 2, 3]))
        assert r == pytest.approx(1.0) and not flagged

    def test_sign_flip(self):
        y = np.array([1.0, 2, 3, 4])
        r, _ = pearson(y, -y)
        assert r == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        y_true = np.array([1.0, 2, 3, 4])
        y_pred = np.array([1.0, 2, 2, 5])
        # oracle: explicit covariance ratio
        a = y_true - y_true.mean()
        b = y_pred - y_pred.mean()
        expected = (a @ b) / np.sqrt((a @ a) * (b @ b))
        r, _ = pearson(y_true, y_pred)
        assert r == pytest.approx(expected, abs=1e-12)
        assert r == pytest.approx(6.0 / np.sqrt(45.0), abs=1e-12)  # = 0.894427...

    def test_constant_flagged(self):
        r, flagged = pearson(np.array([1.0, 1, 1]), np.array([1.0, 2, 3]))
        assert r == 0.0 and flagged

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="could not be broadcast"):
            pearson(np.zeros(4), np.zeros(5))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30),
           st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30))
    def test_bounded(self, a, b):
        n = min(len(a), len(b))
        r, flagged = pearson(np.array(a[:n]), np.array(b[:n]))
        assert -1.0 <= r <= 1.0


class TestBrainScore:
    def test_noiseless_linear_recovery(self):
        cfg = SynthConfig(n_time_activation=30200, n_scans=300, n_features=8,
                          n_targets=12, snr=None, seed=3)
        ds = gen_linear_dataset(cfg)
        sm = brain_score(ds.features_at_tr, ds.response, even_blocks(cfg.n_scans, cfg.n_blocks),
                         [slice(None)])[0]
        assert np.all(sm.r_mean >= 0.999)

    def test_null_scores_near_zero(self):
        cfg = SynthConfig(n_time_activation=12200, n_scans=120, n_features=8,
                          n_targets=500, snr=0.0, seed=9)
        ds = gen_linear_dataset(cfg)
        sm = brain_score(ds.features_at_tr, ds.response, even_blocks(cfg.n_scans, cfg.n_blocks),
                         [slice(None)])[0]
        assert abs(sm.r_mean.mean()) < 0.05

    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            brain_score(np.zeros((30, 2)), np.zeros((29, 2)), even_blocks(30, 3), [slice(None)])

    def test_1d_response_is_one_target(self):
        rng = np.random.default_rng(21)
        X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
        sm, = brain_score(X, y, even_blocks(40, 4), [slice(None)])
        one, = brain_score(X, y[:, None], even_blocks(40, 4), [slice(None)])
        assert sm.r_per_fold.shape == (4, 1)
        assert sm.r_per_fold.tobytes() == one.r_per_fold.tobytes()

    @pytest.mark.parametrize("shape", [(40,), (40, 3, 1)])
    def test_x_not_2d(self, shape):
        X = np.random.default_rng(22).normal(size=shape)
        with pytest.raises(ValueError, match=rf"brain_score needs X \(n, p\); got shape {re.escape(str(shape))}"):
            brain_score(X, np.zeros((40, 2)), even_blocks(40, 4), [slice(None)])

    def test_scores_bounded(self):
        rng = np.random.default_rng(10)
        sm = brain_score(rng.normal(size=(40, 3)), rng.normal(size=(40, 6)), even_blocks(40, 4),
                         [slice(None)])[0]
        assert np.all(sm.r_per_fold <= 1.0) and np.all(sm.r_per_fold >= -1.0)

    def test_no_leakage_from_test_rows(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 4))
        Y = rng.normal(size=(40, 3))
        tr, te = np.arange(10, 40), np.arange(0, 10)  # fold 0 of even_blocks(40, 4)
        Y_perm = Y.copy()
        Y_perm[te] = Y_perm[te][::-1]
        from voxenc.encode import standardize as stdz

        Xtr, _, _, _ = stdz(X[tr])
        Ytr_a, _, _, _ = stdz(Y[tr])
        Ytr_b, _, _, _ = stdz(Y_perm[tr])
        fa = ridge_solve(Xtr, Ytr_a)
        fb = ridge_solve(Xtr, Ytr_b)
        assert np.array_equal(fa.weights, fb.weights)


class TestColumnSets:
    """Several column sets of one X, scored in one fold loop, each get the bits
    of a one-set call on a contiguous copy of their columns."""

    # (scans, blocks, set width): 120 scans in 12 blocks train on n = 110 rows
    # with p = 8 or 16, the screened route; in 4 blocks they train on n = 90
    # with p = 20 or 40, where k^2 >= 4n takes the exact route.
    SHAPES = {"screened": (120, 12, 8), "exact": (120, 4, 20)}

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("layout", ["prefixes", "disjoint", "non_contiguous"])
    def test_sets_equal_one_set_calls(self, shape, layout):
        n, n_blocks, width = self.SHAPES[shape]
        blocks = even_blocks(n, n_blocks)
        n_train = n - blocks[0][1]
        assert _screen_pays(n_train, width) == _screen_pays(n_train, 2 * width) == (shape == "screened")
        rng = np.random.default_rng(13)
        X = rng.normal(size=(n, 2 * width))
        Y = rng.normal(size=(n, 300)) + X @ rng.normal(size=(2 * width, 300)) * rng.uniform(0, 1, 300)
        Y[:, :5] = 0.0  # constant targets: undefined
        if layout == "non_contiguous":
            X = np.repeat(X, 2, axis=1)[:, ::2]
            assert not X.flags.c_contiguous
        if layout == "disjoint":
            sets = [slice(0, width), slice(width, 2 * width)]
        else:
            sets = [slice(width), slice(2 * width)]
        together = brain_score(X, Y, blocks, sets)
        assert len(together) == len(sets)
        for cols, sm in zip(sets, together):
            alone, = brain_score(np.ascontiguousarray(X[:, cols]), Y, blocks, [slice(None)])
            assert sm.r_per_fold.tobytes() == alone.r_per_fold.tobytes()
            assert sm.r_mean.tobytes() == alone.r_mean.tobytes()
            assert np.array_equal(sm.undefined, alone.undefined)
            assert sm.undefined[:5].all() and not sm.undefined[5:].any()


class TestSharedFolds:
    """``score_subjects`` builds each fold's work on X once per run (``encode._Folds``)."""

    @staticmethod
    def _cohort(n_subjects=3, n=120, p=24, targets=1200, seed=18):
        # in 12 blocks each fold trains on n = 110 rows: the 8-column set is
        # screened (k^2 < 4n), the 24-column one takes the float32 route; one
        # response's bytes hold every fold
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        Ys = [rng.normal(size=(n, targets))
              + X @ rng.normal(size=(p, targets)) * rng.uniform(0, 0.3, targets)
              for _ in range(n_subjects)]
        blocks, sets = even_blocks(n, 12), [slice(0, 8), slice(None)]
        assert _screen_pays(110, 8) and not _screen_pays(110, 24)
        return X, Ys, blocks, sets

    def test_svd_path_once_per_fold_and_set(self, monkeypatch):
        X, Ys, blocks, sets = self._cohort()
        calls = []
        svd_path = encode._svd_path

        def counted(*args):
            calls.append(args[0].shape)
            return svd_path(*args)

        monkeypatch.setattr(encode, "_svd_path", counted)
        encode.score_subjects(X, Ys, len(Ys), blocks, sets)
        assert len(calls) == len(blocks) * len(sets)  # not subjects x folds x sets

    @pytest.mark.parametrize("budget", ["every fold", "some folds", "none"])
    def test_scores_equal_one_subject_calls(self, budget):
        """Kept or rebuilt, a fold's work gives each subject the bits of its own ``brain_score``."""
        X, Ys, blocks, sets = self._cohort()
        one = encode._Folds(X, blocks, sets, None, 0)._nbytes(0)
        folds = encode._Folds(X, blocks, sets, None,
                              {"every fold": np.inf, "some folds": 5 * one, "none": 0}[budget])
        for Y in Ys:
            shared = brain_score(X, Y, blocks, sets, folds=folds)
            for sm, alone in zip(shared, brain_score(X, Y, blocks, sets)):
                assert sm.r_per_fold.tobytes() == alone.r_per_fold.tobytes()
                assert np.array_equal(sm.undefined, alone.undefined)
        kept = sum(fold is not None for fold in folds._kept)
        assert kept == {"every fold": len(blocks), "some folds": 5, "none": 0}[budget]

    def test_score_subjects_needs_a_subject(self):
        X, Ys, blocks, sets = self._cohort(n_subjects=1, targets=4)
        with pytest.raises(ValueError, match="score_subjects needs n_subjects >= 1; got 0"):
            encode.score_subjects(X, iter([]), 0, blocks, sets)

    def test_score_subjects_one_dimensional_response(self):
        """A 1-D response is one target, as in ``brain_score``, with or without sets."""
        X, Ys, blocks, sets = self._cohort(n_subjects=1, targets=4)
        y = Ys[0][:, 0]
        scores = encode.score_subjects(X, [y], 1, blocks, sets)
        assert scores.shape == (len(sets), 1, 1)
        for j, sm in enumerate(brain_score(X, y, blocks, sets)):
            assert scores[j, 0].tobytes() == sm.r_mean.tobytes()
        assert encode.score_subjects(X, [y], 1, blocks, []).shape == (0, 1, 1)

    def test_score_subjects_equals_brain_score(self):
        X, Ys, blocks, sets = self._cohort()
        scores = encode.score_subjects(X, iter(Ys), len(Ys), blocks, sets)
        for i, Y in enumerate(Ys):
            for j, sm in enumerate(brain_score(X, Y, blocks, sets)):
                assert scores[j, i].tobytes() == sm.r_mean.tobytes()

    def test_score_maps_own_their_arrays(self):
        """Keeping one set's ``ScoreMap`` keeps no other set's arrays alive."""
        X, Ys, blocks, _ = self._cohort(n_subjects=1, targets=5)
        maps = brain_score(X, Ys[0], blocks, [slice(0, 8), slice(0, 16), slice(None)])
        assert len(maps) == 3
        for sm in maps:
            assert sm.r_mean.base is None and sm.r_per_fold.base is None and sm.undefined.base is None

    @pytest.mark.parametrize("n,p", [(110, 8), (110, 48), (30, 60)])
    def test_path_nbytes_bounds_its_arrays(self, n, p):
        path = RidgePath(np.random.default_rng(19).normal(size=(n, p)))
        held = sum(v.nbytes for v in vars(path).values() if isinstance(v, np.ndarray)
                   and v is not path.grid)
        assert held <= RidgePath.nbytes(n, p, len(path.grid))

    def test_path_grid_must_match(self):
        rng = np.random.default_rng(20)
        X, Y = rng.normal(size=(30, 4)), rng.normal(size=(30, 2))
        path = RidgePath(X, DEFAULT_LAMBDA_GRID[:5])
        assert np.array_equal(ridge_solve(path, Y, DEFAULT_LAMBDA_GRID[:5]).weights,
                              ridge_solve(X, Y, DEFAULT_LAMBDA_GRID[:5]).weights)
        with pytest.raises(ValueError, match="grid differs"):
            ridge_solve(path, Y, DEFAULT_LAMBDA_GRID)


# One brain_score in a fresh process, so the BLAS library reads its thread
# count from the environment at start-up; writes r_per_fold to argv[1].
_SCORE_CHILD = """
import sys
import numpy as np
from voxenc.encode import brain_score
from voxenc.synthbench import even_blocks

rng = np.random.default_rng(12)
X = rng.normal(size=(400, 300))
Y = rng.normal(size=(400, 2500))
wide = brain_score(X, Y, even_blocks(400, 4), [slice(None)])[0].r_per_fold
# the screened shape: n = 110, p = 8 per fold
X = rng.normal(size=(120, 8))
Y = rng.normal(size=(120, 1000)) + X @ rng.normal(size=(8, 1000)) * rng.uniform(0, 1, 1000)
narrow = brain_score(X, Y, even_blocks(120, 12), [slice(None)])[0].r_per_fold
np.savez(sys.argv[1], wide=wide, narrow=narrow)
"""


def test_scores_across_blas_thread_counts(tmp_path):
    """Results depend on the BLAS thread count only through rounding.

    OpenBLAS splits some products differently at 1 thread than at 2 or more,
    so scores move by a few ulps between those; a rerun at the same count
    gives the same bits. Both selection routes are covered: the exact kernel
    over every lambda (400 x 300) and the screen (n = 110, p = 8).
    """
    src = str(Path(voxenc.__file__).resolve().parents[1])
    runs = {}
    for name, threads in [("1", 1), ("2", 2), ("4", 4), ("2-again", 2)]:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / f"r_{name}.npz"
        subprocess.run([sys.executable, "-c", _SCORE_CHILD, str(out)], env=env, check=True)
        runs[name] = dict(np.load(out))
    for shape in ("wide", "narrow"):
        for name in ("2", "4"):
            np.testing.assert_allclose(runs[name][shape], runs["1"][shape], rtol=0, atol=1e-12)
        assert np.array_equal(runs["2-again"][shape], runs["2"][shape])
