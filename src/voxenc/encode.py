"""Brain-score core: block detrending, leave-one-block-out splits, ridge with
exact leave-one-out lambda selection on an SVD path, and Pearson scoring.

Per outer fold the training design is standardized and decomposed once with
a thin SVD X = U diag(s) Vt (U is n x k, k = min(n, p)). At penalty lambda
the coefficients c = U^T y shrink by D = s^2 / (s^2 + lambda), the residual
is r = y - U D c and the hat matrix's diagonal is h = U^2 D. The closed-form
LOO residual r_i / (1 - h_i) has mean square W . r^2 with
W_i = 1 / (n (1 - h_i)^2). Each target takes the lambda with the smallest
value, ties going to the larger lambda, and full-train weights are refit
per lambda group.

The values that decide are those ``_exact_loo_mse`` computes: per lambda it
shrinks c, forms r in one n x targets buffer, squares it and takes one GEMV
with W. When n >> p that is mostly memory traffic, so ``ridge_solve``
screens every lambda first and confirms only near-ties:

- Screen. With C = U^T Y, Y_perp = Y - U C and c~ = (1 - D) c, r equals
  Y_perp + U c~, so
      W . r^2 = W . Y_perp^2 + 2 sum_k c~_k (W * U_k)^T Y_perp + c~^T G c~
  with G = U^T diag(W) U. One GEMM of every lambda's stacked rows
  [(W * U)^T | G diag(1 - D) / 2] against [Y_perp; C] and one of W against
  Y_perp^2 give every lambda's value S; no n x targets array is formed per
  lambda.
- Bound. Let M = sqrt(W . Y_perp^2) + sqrt(nu) |c| with nu = sum_i W_i |U_i|^2,
  u = 2^-53 and gamma_j = j u / (1 - j u), which bounds the relative error
  of j roundings in any order, with or without FMA (Higham, Accuracy and
  Stability of Numerical Algorithms, ch. 3). Bounding every sum of |U| |x|
  row by row with Cauchy-Schwarz, |exact value - S| <= gamma_N M^2, where N
  adds up the roundings: n + 8k + 8 in the exact kernel (its GEMM, subtract,
  square and GEMV), 2k in forming Y_perp, 2n + 2k + 7 in the screen's
  products and sums, and n + 2k + 16 in evaluating the bound and S +- b.
  The code takes b = 2 gamma_N (W . Y_perp^2 + nu |c|^2), which is >= gamma_N M^2.
  The bound assumes no square underflows or overflows; a target whose b
  leaves 2 gamma_N [sqrt(tiny), sqrt(max) / 2] keeps every lambda.
- Confirm. A lambda stays a candidate for a target if S - b <= min(S + b),
  so the lambda the exact values pick is always a candidate. A target with
  one candidate takes it; an all-zero target has LOO error exactly 0 at
  every lambda and takes the largest. For the union of the remaining
  targets' candidates ``_exact_loo_mse`` runs on the whole chunk, which gives
  the same bits as the pass over every lambda, and each target takes its
  argmin over its own candidates.
- Shape rule. Per lambda and target both routes do about n k multiply-adds
  (U times a k-vector, or the stacked rows against Y_perp) and an n-long
  weighted sum. On top, the exact kernel writes, subtracts, squares and
  reads an n-long residual (4n element operations), and the screen
  multiplies by the k x k block (k^2). Counting both alike, the screen pays
  when k^2 < 4n. Timed at n = 60 to 733 (2-vCPU x86-64, OpenBLAS at 2
  threads) the crossover lay between k^2 = 3n and 8n. The replica shape
  (n = 110, k = 8 or 16) is screened; the wide one (n = 733, k = 500) runs
  the exact kernel over every lambda.
- Memory. Targets go in chunks of ``_CHUNK``. The screen's buffers hold no
  more floats than the exact kernel's for a full chunk, (k + n + grid) x
  ``_CHUNK``: targets go through in passes, and lambdas in blocks if one
  stacked matrix would take more than half of that.

Stages pass plain numpy arrays: ``detrend_blocks`` overwrites the caller's
float64 response in place, and ``brain_score``, the one fold loop, takes one
X, column sets of it and one Y and returns a ``ScoreMap``, the only
container, per set. Finiteness is checked once here, in ``ridge_solve``; the
CLI's inputs were already checked when read.

Everything runs in the calling thread; the only parallelism is the BLAS
library's. Results are bit-identical across reruns at a fixed BLAS thread
count. Across thread counts they agree to about 1e-15, because BLAS may split
a product differently (OpenBLAS at 1 thread versus 2 or more).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: 20 log-spaced penalties from 10 to 1e8 inclusive.
DEFAULT_LAMBDA_GRID = np.logspace(1.0, 8.0, 20)

#: Lambda selection runs over fixed-size chunks of targets, so its buffers
#: (the exact kernel's k x _CHUNK shrunk coefficients, n x _CHUNK residuals
#: and grid x _CHUNK LOO errors, or the screen's as many floats) stay bounded
#: however many targets a solve has.
_CHUNK = 1024

#: u = 2^-53, the unit roundoff in the screen's bound.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


@dataclass
class RidgeFit:
    weights: np.ndarray  # d_x x d_y
    chosen_lambda: np.ndarray  # per target


@dataclass
class ScoreMap:
    """Cross-validated Pearson scores: per-target mean plus per-fold values.

    ``undefined`` flags targets whose correlation was degenerate (zero
    variance on either side) in at least one fold; those folds score 0.
    """

    r_mean: np.ndarray  # targets
    r_per_fold: np.ndarray  # folds x targets
    undefined: np.ndarray  # targets, bool

    @property
    def n_targets(self) -> int:
        return self.r_mean.shape[0]


def detrend_blocks(y: np.ndarray, blocks: list[tuple[int, int]]) -> None:
    """Remove a least-squares line (intercept + slope) per column, per block, in place.

    ``y`` is a float64 scans x targets array; each block's rows are
    overwritten with their residuals, so no copy of ``y`` is made.
    """
    if y.dtype != np.float64 or y.ndim != 2:
        raise ValueError("detrend_blocks needs a float64 2-D array")
    covered = sorted(blocks)
    if not covered or covered[0][0] != 0 or covered[-1][1] != y.shape[0] or any(
        covered[i][0] != covered[i - 1][1] for i in range(1, len(covered))
    ):
        raise ValueError("blocks must cover all response rows without gaps or overlap")
    for a, b in blocks:
        n = b - a
        if n < 3:
            raise ValueError(f"block ({a}, {b}) has {n} rows; need >= 3 to detrend")
        t = np.arange(n, dtype=np.float64)
        basis = np.column_stack([np.ones(n), t])
        coef, *_ = np.linalg.lstsq(basis, y[a:b], rcond=None)
        y[a:b] -= basis @ coef


def standardize(
    train: np.ndarray, apply_to: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Column-wise (v - mean)/std using train statistics only.

    Zero-variance columns are mapped to zeros. Returns (train_std,
    applied_std, mean, std).
    """
    if train.shape[0] < 2:
        raise ValueError("need >= 2 training rows to standardize")
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    out_train = train - mean
    out_train /= safe  # in place: no second train-sized temporary
    out_train[:, std == 0] = 0.0
    out_apply = None
    if apply_to is not None:
        out_apply = (apply_to - mean) / safe
        out_apply[:, std == 0] = 0.0
    return out_train, out_apply, mean, std


def ridge_solve(X: np.ndarray, Y: np.ndarray, grid: np.ndarray | None = None) -> RidgeFit:
    """Per-target ridge with exact-LOO lambda selection over the grid.

    X and Y are assumed already standardized (no intercept is fit); a 1-D Y
    is one target. A single thin SVD of X serves every lambda. Each target
    gets the lambda whose closed-form LOO mean squared error, as
    ``_exact_loo_mse`` computes it, is smallest (ties go to the larger
    lambda), and that lambda is refit on the full training set.

    Tall designs (``_screen_pays``) screen every lambda at once, bound the
    screen's rounding error and run ``_exact_loo_mse`` only for the lambdas a
    target could still pick; others run it for every lambda. Both routes
    choose the same lambdas (module docstring).
    """
    grid = DEFAULT_LAMBDA_GRID if grid is None else np.asarray(grid, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"ridge_solve needs X (n, p) and Y (n,) or (n, targets); "
                         f"got {X.shape} and {Y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("non-finite inputs to ridge_solve")
    if X.shape[0] < 2:
        raise ValueError("need >= 2 training rows")
    U, s, Vt, D, W = _svd_path(X, grid)
    UtY = U.T @ Y
    n_targets = Y.shape[1]
    every = np.arange(len(grid))
    screen = _screen_pays(*U.shape)
    chosen_idx = np.empty(n_targets, dtype=np.intp)
    for a in range(0, n_targets, _CHUNK):
        chunk = slice(a, min(a + _CHUNK, n_targets))
        Yc, UtYc = Y[:, chunk], UtY[:, chunk]
        if screen:
            chosen_idx[chunk] = _screened_choice(U, D, W, Yc, UtYc)
        else:
            chosen_idx[chunk] = _last_argmin(_exact_loo_mse(U, D, W, Yc, UtYc, every))

    weights = np.empty((X.shape[1], n_targets))
    for gi in range(len(grid)):
        cols = np.flatnonzero(chosen_idx == gi)
        if cols.size == 0:
            continue
        shrink = s / (s**2 + grid[gi])
        weights[:, cols] = Vt.T @ (shrink[:, None] * UtY[:, cols])
    return RidgeFit(weights=weights, chosen_lambda=grid[chosen_idx])


def _svd_path(X: np.ndarray, grid: np.ndarray):
    """Thin SVD U s Vt of X, shrinkage D (grid x k) and LOO weights W (grid x n).

    D = s^2 / (s^2 + lambda) and W_i = 1 / (n (1 - h_i)^2), h the hat matrix's diagonal.
    """
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    s2 = s**2
    D = s2 / (s2 + grid[:, None])
    W = 1.0 / (X.shape[0] * (1.0 - D @ (U**2).T) ** 2)
    return U, s, Vt, D, W


def _last_argmin(values: np.ndarray) -> np.ndarray:
    """Row index of each column's minimum; ties go to the last row (the larger lambda)."""
    return values.shape[0] - 1 - np.argmin(values[::-1], axis=0)


def _exact_loo_mse(U, D, W, Yc, UtYc, rows) -> np.ndarray:
    """LOO mean squared error of every target of a chunk, one row per grid index in ``rows``.

    This is the selection's reference arithmetic: per lambda, shrink the
    coefficients, form the residual in one n x targets buffer, square it and
    take its W-weighted sum with one GEMV. Run on the same chunk, a grid
    index gives the same bits whichever other indices are in ``rows``.
    """
    shrunk = np.empty(UtYc.shape)
    resid = np.empty(Yc.shape)
    loo_mse = np.empty((len(rows), Yc.shape[1]))
    for j, gi in enumerate(rows):
        np.multiply(D[gi, :, None], UtYc, out=shrunk)
        np.matmul(U, shrunk, out=resid)
        np.subtract(Yc, resid, out=resid)
        np.square(resid, out=resid)
        np.matmul(W[gi], resid, out=loo_mse[j])
    return loo_mse


def _screen_pays(n: int, k: int) -> bool:
    """Shape rule: screen when k^2 < 4n (see the module docstring)."""
    return k * k < 4 * n


def _bound_gamma(n: int, k: int) -> float:
    """gamma_j = j u / (1 - j u) for the screen's rounding-error bound (module docstring)."""
    j = (n + 8 * k + 8) + 2 * k + (2 * n + 2 * k + 7) + (n + 2 * k + 16)
    return j * _UNIT_ROUNDOFF / (1.0 - j * _UNIT_ROUNDOFF)


#: b / (2 gamma_N) must lie in this range at every lambda, or the target keeps
#: every lambda: outside it, squares inside the screen or the exact kernel
#: could leave float64's normal range, where the bound does not hold.
_Q_RANGE = (np.sqrt(np.finfo(np.float64).tiny), np.sqrt(np.finfo(np.float64).max) / 2)


def _stacked_rows(U, W, keep, rows) -> np.ndarray:
    """[(W_l * U)^T | G_l diag(1 - D_l) / 2] for each l in ``rows``, stacked: (rows*k) x (n+k).

    G_l = U^T diag(W_l) U and ``keep`` is 1 - D.
    """
    n, k = U.shape
    Wr = W[rows]
    M = np.empty((Wr.shape[0], k, n + k))
    np.multiply(Wr[:, None, :], U.T, out=M[:, :, :n])
    np.matmul(M[:, :, :n], U, out=M[:, :, n:])
    M[:, :, n:] *= 0.5 * keep[rows, None, :]
    return M.reshape(-1, n + k)


def _screened_choice(U, D, W, Yc, UtYc) -> np.ndarray:
    """What ``_last_argmin`` of ``_exact_loo_mse`` over every lambda picks, per target.

    ``_screen`` leaves each target its candidate lambdas. A target with one
    candidate takes it; an all-zero target has LOO error exactly 0 at every
    lambda and takes the largest. For the rest, ``_exact_loo_mse`` runs on the
    whole chunk for the lambdas some of them could pick, and each picks among
    its own candidates.
    """
    cand = _screen(U, D, W, Yc, UtYc)
    zero = ~Yc.any(axis=0)
    cand[:, zero] = False
    cand[-1, zero] = True
    chosen = _last_argmin(~cand)  # the largest candidate
    unsettled = np.count_nonzero(cand, axis=0) > 1
    if unsettled.any():
        cand = cand[:, unsettled]
        rows = np.flatnonzero(cand.any(axis=1))
        loo = _exact_loo_mse(U, D, W, Yc, UtYc, rows)[:, unsettled]
        chosen[unsettled] = rows[_last_argmin(np.where(cand[rows], loo, np.inf))]
    return chosen


def _screen(U, D, W, Yc, UtYc) -> np.ndarray:
    """Candidate mask (grid x targets): where S - b <= min over lambdas of S + b.

    S is the screened LOO error and b its bound (module docstring). Targets
    go through in passes of ``width`` and lambdas in blocks of ``blk``, sized
    so that the buffers hold no more floats than ``_exact_loo_mse`` takes
    for a full chunk, (k + n + grid) x ``_CHUNK``.
    """
    n, k = U.shape
    g, m = W.shape[0], Yc.shape[1]
    keep = 1.0 - D
    keep2 = 2.0 * keep
    gamma2 = 2.0 * _bound_gamma(n, k)
    nu2 = gamma2 * (W @ np.einsum("ik,ik->i", U, U))  # 2 gamma nu per lambda
    budget = (k + n + g) * _CHUNK
    blk = max(1, min(g, budget // 2 // (k * (n + k))))
    width = max(1, min(m, (budget - blk * k * (n + k) - g * m // 8)
                       // (n + k + blk * k + 3 * g + 8)))
    # Passes of equal width, the last one moved back to end at m: with every
    # operand a whole contiguous buffer numpy makes no temporaries.
    passes = -(-m // width)
    width = -(-m // passes)
    blocks = [slice(b, min(b + blk, g)) for b in range(0, g, blk)]
    stacked = _stacked_rows(U, W, keep, blocks[0]) if len(blocks) == 1 else None
    cand = np.empty((g, m), dtype=bool)
    Z = np.empty((n + k, width))
    Yp, C = Z[:n], Z[n:]
    out = np.empty((blk * k, width))
    S, B, T = (np.empty((g, width)) for _ in range(3))
    for i in range(passes):
        a = min(i * width, m - width)
        cols = slice(a, a + width)
        C[...] = UtYc[:, cols]
        np.matmul(U, C, out=Yp)
        np.subtract(Yc[:, cols], Yp, out=Yp)
        for lam in blocks:
            M = stacked if stacked is not None else _stacked_rows(U, W, keep, lam)
            out3 = out[: M.shape[0]].reshape(-1, k, width)
            np.matmul(M, Z, out=out[: M.shape[0]])
            out3 *= C
            np.matmul(keep2[lam, None, :], out3, out=S[lam, None, :])
        np.square(Yp, out=Yp)
        np.matmul(W, Yp, out=B)
        S += B
        # b = 2 gamma Q, Q = W . Y_perp^2 + nu |c|^2
        B *= gamma2
        np.multiply.outer(nu2, np.einsum("kj,kj->j", C, C), out=T)
        B += T
        tame = (B.min(axis=0) >= gamma2 * _Q_RANGE[0]) & (B.max(axis=0) <= gamma2 * _Q_RANGE[1])
        np.add(S, B, out=T)
        best = T.min(axis=0)
        S -= B
        np.less_equal(S, best, out=cand[:, cols])
        cand[:, cols][:, ~tame] = True
    return cand


def _pearson_columns(Yt: np.ndarray, Yp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation per column; a constant column gets 0.0 and is flagged."""
    a = Yt - Yt.mean(axis=0)
    b = Yp - Yp.mean(axis=0)
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    flagged = (na == 0) | (nb == 0)
    denom = np.where(flagged, 1.0, na * nb)
    r = np.clip(np.einsum("ij,ij->j", a, b) / denom, -1.0, 1.0)
    r[flagged] = 0.0
    return r, flagged


def brain_score(
    X: np.ndarray,
    Y: np.ndarray,
    blocks: list[tuple[int, int]],
    sets: list[slice],
    grid: np.ndarray | None = None,
) -> list[ScoreMap]:
    """Cross-validated encoding score per target, one ``ScoreMap`` per column slice in ``sets``.

    Fold k of the >= 3 half-open row ranges in ``blocks`` tests on block k and
    trains on the others in order. Per fold: standardize X and Y on the train
    rows once; for each set, fit ridge with per-target LOO lambda selection on
    its columns, predict the held-out block and correlate per target.
    Standardizing is column-wise, so a set scores bit for bit as its columns
    alone. A score is the mean of the per-fold correlations.
    """
    if len(blocks) < 3:
        raise ValueError(f"need >= 3 blocks for leave-one-block-out, got {len(blocks)}")
    Xd = np.asarray(X, dtype=np.float64)
    Yd = np.asarray(Y, dtype=np.float64)
    if Xd.shape[0] != Yd.shape[0]:
        raise ValueError(f"X has {Xd.shape[0]} rows, Y has {Yd.shape[0]}; must align at TR")
    r_per_fold = np.zeros((len(sets), len(blocks), Yd.shape[1]))
    flagged = np.zeros((len(sets), Yd.shape[1]), dtype=bool)
    for k in range(len(blocks)):
        # rows per fold: index arrays kept across folds doubled the loop's page faults (glibc heap)
        tr = np.concatenate([np.arange(a, b) for j, (a, b) in enumerate(blocks) if j != k])
        te = np.arange(*blocks[k])
        Xtr, Xte, _, _ = standardize(Xd[tr], Xd[te])
        Ytr, Yte, _, _ = standardize(Yd[tr], Yd[te])
        for j, cols in enumerate(sets):
            fit = ridge_solve(Xtr[:, cols], Ytr, grid)
            pred = Xte[:, cols] @ fit.weights
            r_per_fold[j, k], fl = _pearson_columns(Yte, pred)
            flagged[j] |= fl
            # Free each solve's and fold's largest arrays before the next allocates its
            # own. Freeing the small ones too made glibc return and re-fault heap pages
            # every fold, which cost 0.3-0.7 s per 480-solve replica run.
            del fit
        del Ytr
    return [ScoreMap(r_mean=r.mean(axis=0), r_per_fold=r, undefined=fl)
            for r, fl in zip(r_per_fold, flagged)]
