"""Brain-score core: block detrending, leave-one-block-out splits, ridge with
exact leave-one-out lambda selection on an SVD path, and Pearson scoring.

Per outer fold the training design is standardized, decomposed once with a
thin SVD, and every lambda on the grid is evaluated through the closed-form
LOO residual identity e_i = (y_i - yhat_i) / (1 - h_ii). Its mean square is
taken as a weighted sum, mean(e^2) = W @ r^2 with r = y - yhat and
W_i = 1 / (n (1 - h_ii)^2), so one GEMV per lambda scores a whole chunk of
targets from a single in-place residual buffer. Each target picks its own
lambda (ties break toward stronger regularization), then full-train weights
for the winning lambda are assembled per lambda-group.

Stages pass plain numpy arrays: ``detrend_blocks`` overwrites the caller's
float64 response in place, ``brain_score`` takes X and Y, and ``ScoreMap``,
the only container, holds what it returns. Finiteness is checked once here,
in ``ridge_solve``; the CLI's inputs were already checked when read.

Everything runs in the calling thread; the only parallelism is the BLAS
library's. Results are bit-identical across reruns at a fixed BLAS thread
count. Across thread counts they agree to about 1e-15, because BLAS may split
a product differently (OpenBLAS at 1 thread versus 2 or more).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: 20 log-spaced penalties from 10 to 1e8 inclusive.
DEFAULT_LAMBDA_GRID = np.logspace(1.0, 8.0, 20)

#: Lambda selection runs over fixed-size chunks of targets, so its buffers
#: (k x _CHUNK shrunk coefficients, n x _CHUNK residuals, grid x _CHUNK LOO
#: errors) stay bounded however many targets a solve has.
_CHUNK = 1024


@dataclass
class SplitPlan:
    """Leave-one-block-out folds: (train_block_ids, test_block_ids) pairs."""

    folds: list[tuple[list[int], list[int]]]
    blocks: list[tuple[int, int]]

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def fold_rows(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        train_ids, test_ids = self.folds[fold]
        train = np.concatenate([np.arange(*self.blocks[b]) for b in train_ids])
        test = np.concatenate([np.arange(*self.blocks[b]) for b in test_ids])
        return train, test


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

    r_mean: np.ndarray
    r_per_fold: np.ndarray
    undefined: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.r_mean = np.asarray(self.r_mean, dtype=np.float64)
        self.r_per_fold = np.asarray(self.r_per_fold, dtype=np.float64)
        if self.undefined is None:
            self.undefined = np.zeros(self.r_mean.shape[0], dtype=bool)
        self.undefined = np.asarray(self.undefined, dtype=bool)
        if self.r_per_fold.shape[1] != self.r_mean.shape[0]:
            raise ValueError("r_per_fold target count must match r_mean")

    @property
    def n_targets(self) -> int:
        return self.r_mean.shape[0]

    @property
    def n_folds(self) -> int:
        return self.r_per_fold.shape[0]


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


def make_split_plan(blocks: list[tuple[int, int]]) -> SplitPlan:
    """One fold per block: test on it, train on all others."""
    if len(blocks) < 3:
        raise ValueError(f"need >= 3 blocks for leave-one-block-out, got {len(blocks)}")
    n = len(blocks)
    folds = [([j for j in range(n) if j != i], [i]) for i in range(n)]
    return SplitPlan(folds, list(blocks))


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
    is one target. A single thin SVD of X serves every lambda; LOO mean
    squared error is evaluated in closed form and the minimizing lambda is
    refit on the full training set.
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
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    UtY = U.T @ Y
    s2 = s**2
    # per lambda: shrinkage D (grid x k) and LOO weights W (grid x n)
    D = s2 / (s2 + grid[:, None])
    W = 1.0 / (X.shape[0] * (1.0 - D @ (U**2).T) ** 2)

    n_targets = Y.shape[1]
    chosen_idx = np.empty(n_targets, dtype=np.intp)
    for a in range(0, n_targets, _CHUNK):
        chunk = slice(a, min(a + _CHUNK, n_targets))
        Yc = Y[:, chunk]
        UtYc = UtY[:, chunk]
        shrunk = np.empty(UtYc.shape)
        resid = np.empty(Yc.shape)
        loo_mse = np.empty((len(grid), Yc.shape[1]))
        for gi in range(len(grid)):
            np.multiply(D[gi, :, None], UtYc, out=shrunk)
            np.matmul(U, shrunk, out=resid)
            np.subtract(Yc, resid, out=resid)
            np.square(resid, out=resid)
            np.matmul(W[gi], resid, out=loo_mse[gi])
        # ties break toward the larger lambda: scan from the top of the grid
        rev_best = np.argmin(loo_mse[::-1], axis=0)
        chosen_idx[chunk] = len(grid) - 1 - rev_best

    weights = np.empty((X.shape[1], n_targets))
    for gi in range(len(grid)):
        cols = np.flatnonzero(chosen_idx == gi)
        if cols.size == 0:
            continue
        shrink = s / (s2 + grid[gi])
        weights[:, cols] = Vt.T @ (shrink[:, None] * UtY[:, cols])
    return RidgeFit(weights=weights, chosen_lambda=grid[chosen_idx])


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
    plan: SplitPlan,
    grid: np.ndarray | None = None,
) -> ScoreMap:
    """Cross-validated encoding score per target.

    Per fold: standardize on train rows, fit ridge with per-target LOO lambda
    selection, predict the held-out block, correlate per target. The score is
    the mean of the per-fold correlations.
    """
    Xd = np.asarray(X, dtype=np.float64)
    Yd = np.asarray(Y, dtype=np.float64)
    if Xd.shape[0] != Yd.shape[0]:
        raise ValueError(f"X has {Xd.shape[0]} rows, Y has {Yd.shape[0]}; must align at TR")
    n_targets = Yd.shape[1]
    n_folds = plan.n_folds
    r_per_fold = np.zeros((n_folds, n_targets))
    flagged = np.zeros(n_targets, dtype=bool)

    for k in range(n_folds):
        tr, te = plan.fold_rows(k)
        Xtr, Xte, _, _ = standardize(Xd[tr], Xd[te])
        Ytr, Yte, _, _ = standardize(Yd[tr], Yd[te])
        fit = ridge_solve(Xtr, Ytr, grid)
        pred = Xte @ fit.weights
        r, fl = _pearson_columns(Yte, pred)
        r_per_fold[k] = r
        flagged |= fl
        # Free the fold's two largest arrays before the next fold allocates its own.
        # Freeing the small ones too made glibc return and re-fault heap pages
        # every fold, which cost 0.3-0.7 s per 480-solve replica run.
        del Ytr, fit
    return ScoreMap(r_mean=r_per_fold.mean(axis=0), r_per_fold=r_per_fold, undefined=flagged)
