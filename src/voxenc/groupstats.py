"""Second-level statistics across subjects: Wilcoxon signed-rank per target,
Benjamini-Hochberg FDR across targets, and ROI aggregation.

One stable argsort of |values| over the subjects ranks every target: zeros
are dropped and ties share their midrank, doubled to stay an integer. With n
nonzero differences, 5 <= n <= EXACT_LIMIT takes the exact null of W+ (dynamic
programming over the ranks, shared by all targets with the same ranks, whose
integer counts stay exact below 2**53) and n > EXACT_LIMIT the normal
approximation with tie and continuity corrections; fewer than 5 leave the
test undefined. ``wilcoxon_signed_rank`` is the same path on one target. Only
numpy and the standard library are used, so importing this module does not
load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EXACT_LIMIT = 25
ALTERNATIVES = ("greater", "two_sided")


@dataclass
class StatMap:
    statistic: np.ndarray
    p_raw: np.ndarray
    significant: np.ndarray
    q: float
    undefined: np.ndarray


class DegenerateSample(ValueError):
    """Fewer than 5 nonzero differences; the test is undefined."""


def _check_alternative(alternative: str) -> None:
    if alternative not in ALTERNATIVES:
        raise ValueError(f"unknown alternative {alternative!r}")


@lru_cache(maxsize=256)
def _null_tails(doubled_ranks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Exact P(W+ >= w) and P(W+ <= w) by doubled w, counting sign assignments per W+."""
    counts = np.zeros(sum(doubled_ranks) + 1)
    counts[0] = 1.0
    acc = 0
    for r in doubled_ranks:
        counts[r : acc + r + 1] += counts[0 : acc + 1].copy()  # copy: ranges overlap
        acc += r
    total = counts.sum()
    return np.cumsum(counts[::-1])[::-1] / total, np.cumsum(counts) / total


def _signed_rank(values: np.ndarray, alternative: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W+, p and the undefined mask of each column of a finite subjects x targets array."""
    # one targets x subjects copy, so every sort, gather and scan runs along a contiguous row
    vals = np.ascontiguousarray(values.T)
    n_targets, n_subjects = vals.shape
    mag = np.abs(vals)
    order = np.argsort(mag, axis=1, kind="stable")
    srt = np.take_along_axis(mag, order, axis=1)
    positive = np.take_along_axis(vals, order, axis=1) > 0
    pos = np.arange(n_subjects)
    run_start = np.ones(srt.shape, dtype=bool)
    run_start[:, 1:] = srt[:, 1:] != srt[:, :-1]
    run_end = np.ones(srt.shape, dtype=bool)
    run_end[:, :-1] = run_start[:, 1:]
    first = np.maximum.accumulate(np.where(run_start, pos, 0), axis=1)
    stop = np.minimum.accumulate(np.where(run_end, pos + 1, n_subjects)[:, ::-1], axis=1)[:, ::-1]
    nonzero = srt != 0
    n = np.count_nonzero(nonzero, axis=1)
    # the run at sorted positions [first, stop) holds ranks first-zeros+1 .. stop-zeros,
    # so its doubled midrank is first + stop + 1 - 2*zeros
    ranks2 = np.where(nonzero, first + stop + 1 - 2 * (n_subjects - n)[:, None], 0)
    w2 = np.sum(ranks2 * positive, axis=1)
    w_plus = w2 / 2.0
    p = np.full(n_targets, np.nan)

    exact = np.flatnonzero((n >= 5) & (n <= EXACT_LIMIT))
    if exact.size:
        # sort the targets by their doubled ranks, so equal ranks sit side by side
        by_ranks = np.lexsort(ranks2[exact].T)
        keys = ranks2[exact[by_ranks]]
        starts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
        for key, members in zip(keys[starts], np.split(exact[by_ranks], starts[1:])):
            ge, le = _null_tails(tuple(key[key > 0].tolist()))
            w = w2[members]
            p[members] = ge[w] if alternative == "greater" else np.minimum(
                1.0, 2.0 * np.minimum(ge[w], le[w]))

    normal = np.flatnonzero(n > EXACT_LIMIT)
    if normal.size:
        length = stop - first
        ties = np.sum(np.where(run_end & nonzero, length**3 - length, 0), axis=1)[normal]
        m, w = n[normal], w_plus[normal]
        mean = m * (m + 1) / 4.0
        sd = np.sqrt(m * (m + 1) * (2 * m + 1) / 24.0 - ties / 48.0)
        if alternative == "greater":
            z = (w - mean - 0.5) / sd
        else:
            z = np.abs((w - mean - np.sign(w - mean) * 0.5) / sd)
        sf = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in z.tolist()])
        p[normal] = sf if alternative == "greater" else np.minimum(1.0, 2.0 * sf)

    undefined = n < 5
    w_plus[undefined] = np.nan
    return w_plus, p, undefined


def wilcoxon_signed_rank(diffs: np.ndarray, alternative: str = "greater") -> tuple[float, float]:
    """Signed-rank test on per-subject differences: ``group_test``'s ranking of one target.

    Zero differences are dropped first; fewer than 5 nonzero differences
    raise ``DegenerateSample``. Returns (W+, p). ``alternative`` is
    "greater" (positive shift) or "two_sided".
    """
    _check_alternative(alternative)
    d = np.asarray(diffs, dtype=np.float64).reshape(-1, 1)
    if not np.all(np.isfinite(d)):
        raise ValueError("differences contain non-finite values")
    n = np.count_nonzero(d)
    if n == 0:
        raise DegenerateSample("all differences are zero")
    if n < 5:
        raise DegenerateSample(f"need >= 5 nonzero differences, got {n}")
    w_plus, p, _ = _signed_rank(d, alternative)
    return float(w_plus[0]), float(p[0])


def fdr_bh(p_values: np.ndarray, q: float = 0.05) -> np.ndarray:
    """Benjamini-Hochberg step-up: reject the k smallest p with p_(k) <= k q/m."""
    p = np.asarray(p_values, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    thresh = q * np.arange(1, m + 1) / m
    passing = np.flatnonzero(p[order] <= thresh)
    mask = np.zeros(m, dtype=bool)
    if passing.size:
        mask[order[: passing[-1] + 1]] = True
    return mask


def group_test(
    values: np.ndarray, alternative: str = "greater", q: float = 0.05
) -> StatMap:
    """Per-target Wilcoxon across subjects followed by BH correction.

    ``values`` is subjects x targets (scores or delta-R) and must be finite.
    Targets with fewer than 5 nonzero differences are flagged undefined, get
    a NaN statistic and p-value, are never significant and are excluded from
    FDR.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n_subjects, n_targets = values.shape
    if n_subjects < 5:
        raise ValueError(f"need >= 5 subjects, got {n_subjects}")
    _check_alternative(alternative)
    bad = ~np.isfinite(values)
    if bad.any():
        first = int(np.flatnonzero(bad.any(axis=0))[0])
        raise ValueError(f"{int(bad.sum())} non-finite values across subjects x targets; "
                         f"first in target {first}")
    stat, p_raw, undefined = _signed_rank(values, alternative)
    significant = np.zeros(n_targets, dtype=bool)
    significant[~undefined] = fdr_bh(p_raw[~undefined], q)
    return StatMap(statistic=stat, p_raw=p_raw, significant=significant, q=q, undefined=undefined)


def roi_mean(values: np.ndarray, roi: list[int]) -> float:
    """Arithmetic mean of per-target values over the ROI's indices."""
    if len(roi) == 0:
        raise ValueError("empty ROI")
    values = np.asarray(values, dtype=np.float64)
    idx = np.asarray(roi, dtype=np.intp)
    if idx.min() < 0 or idx.max() >= values.shape[-1]:
        raise ValueError(f"ROI index outside [0, {values.shape[-1]})")
    return float(values[..., idx].mean())
