"""Reference implementations the tests compare the toolkit against.

Each is the slow, obviously correct form of a fast path in ``voxenc``: the
dense ridge solve and the closed-form LOO residuals for ``encode.ridge_solve``,
path enumeration and a one-array-per-frame alpha recursion for the CTC forward
recursion, and a per-target Wilcoxon for ``group_test``.
"""

import itertools
import math

import numpy as np

from voxenc.ctc import CtcInstance, collapse
from voxenc.groupstats import ALTERNATIVES, EXACT_LIMIT, DegenerateSample


def ridge_closed_form(X: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Dense normal-equations solve (X'X + lam I)^-1 X'Y."""
    p = X.shape[1]
    return np.linalg.solve(X.T @ X + lam * np.eye(p), X.T @ Y)


def loo_residuals(X: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form leave-one-out residuals for a single penalty."""
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    d = s**2 / (s**2 + lam)
    Y2 = Y[:, None] if Y.ndim == 1 else Y
    resid = Y2 - U @ (d[:, None] * (U.T @ Y2))
    h = (U**2) @ d
    out = resid / (1.0 - h)[:, None]
    return out[:, 0] if Y.ndim == 1 else out


def ctc_brute_force(inst: CtcInstance) -> float:
    """Enumeration oracle: sum probability of every path collapsing to targets.

    Cost is n_classes**T; keep T <= ~8.
    """
    T, n_classes = inst.log_probs.shape
    target = list(inst.targets)
    terms = []
    for path in itertools.product(range(n_classes), repeat=T):
        if collapse(path) == target:
            terms.append(sum(inst.log_probs[t, c] for t, c in enumerate(path)))
    if not terms:
        return -np.inf
    terms = np.asarray(terms)
    m = terms.max()
    return float(m + np.log(np.exp(terms - m).sum()))


def ctc_forward_reference(log_probs: np.ndarray, extended: np.ndarray) -> float:
    """The alpha recursion written plainly: new arrays for every frame's terms.

    ``ctc.forward_log_likelihood`` does the same operations on each element
    in preallocated buffers, so the two agree bit for bit.
    """
    T = log_probs.shape[0]
    S = extended.shape[0]
    alpha = np.full(S, -np.inf)
    alpha[0] = log_probs[0, extended[0]]
    if S > 1:
        alpha[1] = log_probs[0, extended[1]]
    can_skip = np.zeros(S, dtype=bool)
    can_skip[2:] = (extended[2:] != 0) & (extended[2:] != extended[:-2])
    for t in range(1, T):
        stay = alpha
        prev = np.concatenate(([-np.inf], alpha[:-1]))
        skip = np.concatenate(([-np.inf, -np.inf], alpha[:-2]))
        skip = np.where(can_skip, skip, -np.inf)
        alpha = np.logaddexp(np.logaddexp(stay, prev), skip) + log_probs[t, extended]
    if S == 1:
        return float(alpha[0])
    return float(np.logaddexp(alpha[-1], alpha[-2]))


def count_alignments(T: int, targets: list[int], n_classes: int) -> int:
    """Number of length-T paths that collapse to ``targets``."""
    count = 0
    for path in itertools.product(range(n_classes), repeat=T):
        if collapse(path) == list(targets):
            count += 1
    return count


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


def wilcoxon_reference(diffs: np.ndarray, alternative: str = "greater") -> tuple[float, float]:
    """(W+, p) of one target's differences, ranked on their own, zeros dropped first."""
    if alternative not in ALTERNATIVES:
        raise ValueError(f"unknown alternative {alternative!r}")
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
