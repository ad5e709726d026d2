"""Second-level statistics across subjects: Wilcoxon signed-rank per target,
Benjamini-Hochberg FDR across targets, and ROI aggregation.

The signed-rank test is exact (full null distribution of W+ built by dynamic
programming over rank subsets) up to EXACT_LIMIT subjects, and switches to a
normal approximation with tie and continuity corrections above that. Ranks
are midranks (ties share their average rank), doubled internally so they stay
integral. Only numpy and the standard library are used, so importing this
module does not load scipy.

``group_test`` ranks every target at once where it can, from one stable
argsort of |values| over the subjects axis. Up to EXACT_LIMIT subjects, the
targets with no zero or tied differences share one null distribution, so
cumulative sums of the cached null counts give all their W+ and p-values.
Above it, the targets that keep more than EXACT_LIMIT nonzero differences
get W+ and the tie variance from the runs of equal sorted |values| and the
normal approximation column-wise. Every other target takes the per-target
``wilcoxon_signed_rank``. Null counts are integers below 2**53 and doubled
midranks and tie terms are integers, so every path returns bit-identical
results.
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


def _midranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; each run of ties gets its average rank."""
    order = np.argsort(a, kind="stable")
    srt = a[order]
    starts = np.flatnonzero(np.r_[True, srt[1:] != srt[:-1]])
    ends = np.r_[starts[1:], a.size]  # exclusive; the run holds ranks starts+1..ends
    ranks = np.empty(a.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _norm_sf(z: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _null_counts(doubled_ranks: tuple[int, ...]) -> np.ndarray:
    """Count sign assignments per doubled W+ value; counts[w] over w=0..sum."""
    total = sum(doubled_ranks)
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    acc = 0
    for r in doubled_ranks:
        counts[r : acc + r + 1] += counts[0 : acc + 1].copy()  # copy: ranges overlap
        acc += r
    return counts


@lru_cache(maxsize=64)
def _null_counts_tiefree(n: int) -> np.ndarray:
    return _null_counts(tuple(2 * k for k in range(1, n + 1)))


def wilcoxon_signed_rank(
    diffs: np.ndarray, alternative: str = "greater"
) -> tuple[float, float]:
    """Signed-rank test on per-subject differences.

    Zero differences are dropped first; fewer than 5 nonzero differences
    raise ``DegenerateSample``. Returns (W+, p). ``alternative`` is
    "greater" (positive shift) or "two_sided".
    """
    _check_alternative(alternative)
    d = np.asarray(diffs, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValueError("differences contain non-finite values")
    d = d[d != 0]
    n = d.size
    if n == 0:
        raise DegenerateSample("all differences are zero")
    if n < 5:
        raise DegenerateSample(f"need >= 5 nonzero differences, got {n}")
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= EXACT_LIMIT:
        doubled = np.rint(2 * ranks).astype(int)
        if np.unique(doubled).size == n:  # no ties: cacheable 1..n distribution
            counts = _null_counts_tiefree(n)
        else:
            counts = _null_counts(tuple(sorted(doubled)))
        total = counts.sum()
        w2 = int(round(2 * w_plus))
        p_ge = counts[w2:].sum() / total
        if alternative == "greater":
            p = p_ge
        else:
            p_le = counts[: w2 + 1].sum() / total
            p = min(1.0, 2.0 * min(p_ge, p_le))
        return w_plus, float(p)

    # normal approximation with tie and continuity corrections
    mean = n * (n + 1) / 4.0
    tie_counts = np.unique(ranks, return_counts=True)[1]
    var = n * (n + 1) * (2 * n + 1) / 24.0 - np.sum(tie_counts**3 - tie_counts) / 48.0
    sd = np.sqrt(var)
    if alternative == "greater":
        z = (w_plus - mean - 0.5) / sd
        p = _norm_sf(z)
    else:
        z = (w_plus - mean - np.sign(w_plus - mean) * 0.5) / sd
        p = min(1.0, 2.0 * _norm_sf(abs(z)))
    return w_plus, p


def _exact_tiefree(positive: np.ndarray, alternative: str) -> tuple[np.ndarray, np.ndarray]:
    """W+ and exact p for columns with no zero or tied |value|.

    ``positive`` marks the positive values of each column in ascending order
    of |value|, so the row at sorted position i has rank i + 1 and the
    columns share the tie-free null of n = rows.
    """
    n = positive.shape[0]
    w_plus = np.arange(1, n + 1) @ positive  # integer W+ per column
    counts = _null_counts_tiefree(n)
    total = counts.sum()
    w2 = 2 * w_plus
    # cumulative sums of integer counts below 2**53 are exact, so these equal
    # counts[w2:].sum() and counts[:w2 + 1].sum() bit for bit
    p = np.cumsum(counts[::-1])[::-1][w2] / total
    if alternative == "two_sided":
        p_le = np.cumsum(counts)[w2] / total
        p = np.minimum(1.0, 2.0 * np.minimum(p, p_le))
    return w_plus.astype(np.float64), p


def _normal_tied(
    srt: np.ndarray, positive: np.ndarray, alternative: str
) -> tuple[np.ndarray, np.ndarray]:
    """W+ and normal-approximation p, with tie and continuity corrections, per column.

    ``srt`` holds each column's |values| in ascending order and ``positive``
    marks the positive values in the same order. Zeros sort first and are
    dropped; each run of equal nonzero |values| shares its midrank. Doubled
    midranks and the tie term sum(t**3 - t) are integers, so W+ and the
    variance equal ``wilcoxon_signed_rank``'s, and so does every later step.
    """
    rows = srt.shape[0]
    pos = np.arange(rows)[:, None]
    run_start = np.ones(srt.shape, dtype=bool)
    run_start[1:] = srt[1:] != srt[:-1]
    run_end = np.ones(srt.shape, dtype=bool)
    run_end[:-1] = run_start[1:]
    first = np.maximum.accumulate(np.where(run_start, pos, 0), axis=0)
    stop = np.minimum.accumulate(np.where(run_end, pos + 1, rows)[::-1], axis=0)[::-1]
    zeros = np.count_nonzero(srt == 0, axis=0)
    n = rows - zeros
    # the run at sorted positions [first, stop) holds ranks first-zeros+1 .. stop-zeros,
    # so its doubled midrank is first + stop + 1 - 2*zeros
    w_plus = np.sum((first + stop + 1 - 2 * zeros) * positive, axis=0) / 2.0
    length = stop - first
    ties = np.sum(np.where(run_end & (srt != 0), length**3 - length, 0), axis=0)
    mean = n * (n + 1) / 4.0
    sd = np.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - ties / 48.0)
    if alternative == "greater":
        z = (w_plus - mean - 0.5) / sd
    else:
        z = np.abs((w_plus - mean - np.sign(w_plus - mean) * 0.5) / sd)
    p = np.array([_norm_sf(v) for v in z.tolist()])
    if alternative == "two_sided":
        p = np.minimum(1.0, 2.0 * p)
    return w_plus, p


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
    stat = np.full(n_targets, np.nan)
    p_raw = np.full(n_targets, np.nan)
    undefined = np.zeros(n_targets, dtype=bool)
    mag = np.abs(values)
    order = np.argsort(mag, axis=0, kind="stable")
    srt = np.take_along_axis(mag, order, axis=0)
    positive = np.take_along_axis(values, order, axis=0) > 0
    if n_subjects <= EXACT_LIMIT:
        ranked = (srt[0] > 0) & np.all(srt[1:] != srt[:-1], axis=0)
        if ranked.any():
            stat[ranked], p_raw[ranked] = _exact_tiefree(positive[:, ranked], alternative)
    else:
        ranked = np.count_nonzero(srt, axis=0) > EXACT_LIMIT
        if ranked.any():
            stat[ranked], p_raw[ranked] = _normal_tied(
                srt[:, ranked], positive[:, ranked], alternative
            )
    for j in np.flatnonzero(~ranked):
        try:
            stat[j], p_raw[j] = wilcoxon_signed_rank(values[:, j], alternative)
        except DegenerateSample:
            undefined[j] = True
    significant = np.zeros(n_targets, dtype=bool)
    live = ~undefined
    if live.any():
        significant[live] = fdr_bh(p_raw[live], q)
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
