"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from voxenc.contrast import delta_layerwise
from voxenc.ctc import CtcInstance, ctc_log_likelihood
from voxenc.encode import DEFAULT_LAMBDA_GRID, brain_score
from voxenc.groupstats import fdr_bh, group_test, wilcoxon_signed_rank
from voxenc.hemo import glover_hrf, hrf_align
from voxenc.synthbench import (
    SynthConfig,
    even_blocks,
    gen_null_cohort,
    gen_replica_cohort,
)

from oracles import ctc_brute_force, loo_residuals, ridge_closed_form
from support import gen_linear_dataset


def _report(n, name, detail):
    print(f"PASS criterion {n}: {name} ({detail})")


def test_criterion_1_ridge_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 65))
        p = int(rng.integers(2, 17))
        X = rng.normal(size=(n, p))
        Y = rng.normal(size=(n, 3))
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        UtY = U.T @ Y
        for lam in DEFAULT_LAMBDA_GRID:
            w_svd = Vt.T @ ((s / (s**2 + lam))[:, None] * UtY)
            w_dense = ridge_closed_form(X, Y, lam)
            worst = max(worst, np.abs(w_svd - w_dense).max())
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 10.0
    _report(1, "ridge SVD path vs dense oracle", f"max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_loo_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(6, 41))
        p = int(rng.integers(2, min(n, 12)))
        X = rng.normal(size=(n, p))
        Y = rng.normal(size=(n, 2))
        lam = float(rng.choice(DEFAULT_LAMBDA_GRID[:8]))
        loo = loo_residuals(X, Y, lam)
        explicit = np.empty_like(loo)
        for i in range(n):
            mask = np.arange(n) != i
            w = ridge_closed_form(X[mask], Y[mask], lam)
            explicit[i] = Y[i] - X[i] @ w
        worst = max(worst, np.abs(loo - explicit).max())
    assert worst < 1e-6
    _report(2, "closed-form LOO vs explicit refits", f"max err {worst:.2e}")


def test_criterion_3_ctc_oracle_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    n_finite = 0
    for _ in range(1000):
        T = int(rng.integers(1, 7))
        n_classes = int(rng.integers(2, 5))
        tlen = int(rng.integers(1, T + 2))
        p = rng.dirichlet(np.ones(n_classes), size=T)
        targets = list(rng.integers(1, n_classes, size=tlen))
        inst = CtcInstance(np.log(p), targets)
        dp = ctc_log_likelihood(inst)
        bf = ctc_brute_force(inst)
        if np.isinf(bf) or np.isinf(dp):
            assert dp == bf
        else:
            n_finite += 1
            worst = max(worst, abs(dp - bf))
    assert worst < 1e-10
    _report(3, "CTC forward DP vs brute-force enumeration",
            f"{n_finite} finite instances, max err {worst:.2e}")


def test_criterion_4_wilcoxon_exactness():
    # anchor case first
    stat, p = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], "greater")
    assert p == 0.03125
    # exhaustive sign patterns for every n <= 12 on distinct magnitudes
    checked = 0
    for n in range(5, 13):
        mags = np.arange(1.0, n + 1.0)
        ranks = rankdata(mags)
        # oracle null distribution: W+ over all 2^n sign assignments
        signs_all = np.array(list(itertools.product([0, 1], repeat=n)), dtype=float)
        w_all = signs_all @ ranks
        for signs in itertools.product([-1.0, 1.0], repeat=n):
            d = mags * np.array(signs)
            w_obs = ranks[d > 0].sum()
            p_oracle = float(np.mean(w_all >= w_obs - 1e-12))
            _, p_impl = wilcoxon_signed_rank(d, "greater")
            assert p_impl == pytest.approx(p_oracle, abs=1e-12)
            checked += 1
    _report(4, "wilcoxon exact enumeration", f"{checked} sign patterns, n=5..12")


def test_criterion_5_null_calibration():
    t0 = time.perf_counter()
    n_reps, n_subjects, n_targets = 20, 20, 500
    fractions = np.empty(n_reps)
    means = np.empty(n_reps)
    for rep in range(n_reps):
        cfg = SynthConfig(n_time_activation=12200, n_scans=120, n_features=10,
                          n_targets=n_targets, n_subjects=n_subjects, snr=0.0,
                          seed=5000 + rep)
        scores = gen_null_cohort(cfg)
        means[rep] = scores.mean()
        stats = group_test(scores, "greater", 0.05)
        fractions[rep] = stats.significant.mean()
    elapsed = time.perf_counter() - t0
    se = fractions.std(ddof=1) / np.sqrt(n_reps)
    assert fractions.mean() <= 0.05 + 2 * se
    assert abs(means.mean()) <= 0.02
    assert elapsed < 300.0
    _report(5, "null calibration", f"sig frac {fractions.mean():.4f}, "
            f"mean score {means.mean():+.4f}, {elapsed:.0f}s")


def test_criterion_6_snr_recovery():
    cfg = SynthConfig(n_time_activation=30200, n_scans=300, n_features=5,
                      n_targets=200, snr=1.0, seed=106)
    ds = gen_linear_dataset(cfg)
    sm = brain_score(ds.features_at_tr, ds.response, even_blocks(cfg.n_scans, cfg.n_blocks),
                     [slice(None)])[0]
    target = np.sqrt(0.5)  # analytic corr of signal-plus-noise at snr=1
    assert abs(sm.r_mean.mean() - target) <= 0.05
    _report(6, "SNR recovery", f"mean r {sm.r_mean.mean():.4f} vs {target:.4f}")


def test_criterion_7_hrf_behavior():
    kernel = glover_hrf(1000.0)
    t_peak = np.argmax(kernel) / 1000.0
    assert 4.5 <= t_peak <= 6.5
    peak = int(np.argmax(kernel))
    assert kernel[peak:].min() < 0
    # linearity of the convolution+downsample pipeline, at 50 Hz read every 2 s
    rng = np.random.default_rng(107)
    a_mat = rng.normal(size=(3000, 4))
    b_mat = rng.normal(size=(3000, 4))

    def convolve(data):
        return hrf_align(data, 50.0, 12, 2.0, normalize=False)

    lhs = convolve(2.0 * a_mat + 3.0 * b_mat)
    rhs = 2.0 * convolve(a_mat) + 3.0 * convolve(b_mat)
    lin_err = np.abs(lhs - rhs).max()
    assert lin_err < 1e-12
    _report(7, "HRF behavior", f"peak {t_peak:.2f}s, linearity err {lin_err:.1e}")


def test_criterion_8_telescoping_contrasts():
    rng = np.random.default_rng(108)
    scores = list(rng.uniform(-1, 1, size=(6, 300)))
    total = sum(delta_layerwise(scores))
    direct = scores[-1] - scores[0]
    err = np.abs(total - direct).max()
    assert err < 1e-12
    _report(8, "telescoping contrast identity", f"max err {err:.1e}")


def test_criterion_9_paper_replica():
    cfg = SynthConfig(n_time_activation=12200, n_scans=120, n_features=8,
                      n_targets=100, n_subjects=20, snr=1.0, seed=109)
    delta = gen_replica_cohort(cfg)
    stats = group_test(delta, "greater", 0.05)
    frac_sig = stats.significant.mean()
    assert delta.mean() > 0
    assert frac_sig > 0.5  # the signal-bearing feature set wins broadly
    _report(9, "paper-replica end-to-end", f"mean delta {delta.mean():+.3f}, "
            f"{frac_sig:.0%} targets significant at q=0.05")


def test_criterion_10_performance_and_thread_identity():
    rng = np.random.default_rng(110)
    X = rng.normal(size=(800, 500))
    Y = rng.normal(size=(800, 10000))
    blocks = even_blocks(800, 12)
    t0 = time.perf_counter()
    sm1 = brain_score(X, Y, blocks, [slice(None)])[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    # byte-identical at a fixed BLAS thread count; across thread counts see
    # test_encode.test_scores_across_blas_thread_counts
    sm2 = brain_score(X, Y, blocks, [slice(None)])[0]
    assert np.array_equal(sm1.r_per_fold, sm2.r_per_fold)
    assert np.array_equal(sm1.r_mean, sm2.r_mean)
    _report(10, "performance + thread identity",
            f"{elapsed:.0f}s, rerun byte-identical at a fixed BLAS thread count")
