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
with W. ``ridge_solve`` never changes those values; it only avoids running
the kernel where it cannot change a choice. It takes one of two routes by
the shape of the design, and both end the same way:

- Candidate rule. Every selection stage gives values S and widths b with
  |S - the float64 kernel's value| <= b per lambda and target, and
  ``_candidates`` keeps, among the lambdas still open, those where
  S - b <= min(S + b) over them, so the lambda the exact values pick always
  stays. A target whose S + b is not finite at some open lambda keeps them all.
- Rounding model. With u the unit roundoff of the arithmetic (2^-24 or
  2^-53), gamma_j = j u / (1 - j u) (``_gamma``) bounds the relative error
  of j roundings in any order, with or without FMA (Higham, Accuracy and
  Stability of Numerical Algorithms, ch. 3). Each bound counts its stage's
  roundings plus those of evaluating itself and S +- b in float64.
- Confirm on the chunk. A target with one candidate takes it; an all-zero
  target has LOO error exactly 0 at every lambda and takes the largest. For
  the union of the remaining targets' candidates ``_exact_loo_mse`` runs on
  the whole chunk, which gives the same bits as the pass over every lambda,
  and each target takes its last argmin over its own candidates.

Tall designs (n >> p) screen every lambda first:

- Screen. With C = U^T Y, Y_perp = Y - U C and c~ = (1 - D) c, r equals
  Y_perp + U c~, so
      W . r^2 = W . Y_perp^2 + 2 sum_k c~_k (W * U_k)^T Y_perp + c~^T G c~
  with G = U^T diag(W) U. One GEMM of every lambda's stacked rows
  [(W * U)^T | G diag(1 - D) / 2] against [Y_perp; C] and one of W against
  Y_perp^2 give every lambda's value S; no n x targets array is formed per
  lambda.
- Bound. Let M = sqrt(W . Y_perp^2) + sqrt(nu) |c| with nu = sum_i W_i |U_i|^2
  and u = 2^-53. Bounding every sum of |U| |x| row by row with
  Cauchy-Schwarz, |exact value - S| <= gamma_N M^2 with
  N = (n + 8k + 8) + 2k + (2n + 2k + 7) + (n + 2k + 16) = 4n + 14k + 31: the
  exact kernel's roundings (its GEMM, subtract, square and GEMV), forming
  Y_perp, the screen's products and sums, and evaluating the bound and S +- b.
  The code takes b = 2 gamma_N (W . Y_perp^2 + nu |c|^2), which is
  >= gamma_N M^2. The bound assumes no square underflows or overflows, so
  a target whose b leaves 2 gamma_N [sqrt(tiny), sqrt(max) / 2] gets b = inf.

Wide designs (p near or above n) certify the choice with one float32 pass
and confirm in float64 only the lambdas a target could still pick:

- Float32 pass. ``_float32_screen`` runs the exact kernel's arithmetic in
  float32 (U, D, W, C and Y rounded to float32; shrink, SGEMM, subtract,
  square, weighted sum), giving S32, on the (lambda, target) pairs the
  bracket leaves. Each pass over targets holds them as float32 rows, and
  ``_PairValues`` takes a step's pairs in lambda order in blocks that fill
  the pass's buffers: gather the coefficient rows, scale each lambda's run
  by its row of D, one SGEMM with U^T for the whole block, gather the Y
  rows, subtract and square, and one GEMV per lambda's run with its row of
  W. Each pair still gets exactly the roundings the bound below counts, so
  which block a pair lands in changes no choice. A GEMM call costs about
  0.12 ms on top of its rows (SGEMM of 8 rows against the 733 x 500 U^T:
  18 us a row; of 512 rows: 3.0 us).
- Bracket. Taking the computed U, D and c as exact, r satisfies
      ||r||^2 = ||y||^2 - ||c||^2 + ||(1 - D) c||^2 + 2 dc^T D c + c^T D E D c
  with E = U^T U - I and dc = c - U^T y, and min W ||r||^2 <= T <= max W ||r||^2
  per lambda. The first three terms cost one (grid x k) by (k x targets) GEMM
  on squares per chunk. The bracket counts the rest and its own rounding:
  U's orthonormality defect epsilon >= ||E||_2, the Frobenius norm of the
  computed U^T U - I plus that Gram product's bound gamma_n ||U||_F^2, once
  per fold (``_gram_defect``), so |c^T D E D c| <= epsilon ||c||^2; the GEMM
  error of c, ||dc|| <= gamma_n ||U||_F ||y|| with ||U||_F^2 <= k (1 + epsilon);
  and gamma_{n+k+16} (||y||^2 + 3 ||c||^2) for the sums of squares, the
  cancellation in ||y||^2 - ||c||^2 and evaluating the bracket (16 roundings),
  plus tiny per operation for underflow. Its floor, min W times the lower end
  minus the float64 kernel's bound below at rho = sqrt(max W times the upper
  end), lies below the kernel's value, not only below T. Each target first
  takes S32 at its anchor, the lambda minimising the bracket's midpoint, and a
  lambda whose floor lies above the anchor's S32 + b cannot hold the
  kernel's minimum and leaves the pass. A target whose upper end is not
  finite keeps every lambda; below float64's normal range the tiny terms
  take the floor below 0. On wide seeds 3 and 50-53 the bracket left
  29.6-31.7 % of (target, lambda) pairs for the pass.
- Bound. Let r = y - U D c be the exact residual, T = W . r^2 the exact
  value, R the computed residual, delta_i = |R_i - r_i| and |x|_W^2 =
  W . x^2. With |U_ik| <= 1 and 0 <= D < 1, Higham's model gives per row
      delta_i <= gamma_{k+5} |U_i| |D c| + gamma_2 |y_i|      (float32)
      delta_i <= gamma_{k+2} |U_i| |D c| + gamma_1 |y_i|      (float64)
  (the float32 count takes in rounding U, D, C and y to float32). By
  Cauchy-Schwarz |U_i| |D c| <= ||U_i|| ||D c||, so
      e = |delta|_W <= gamma sqrt(nu) ||D c|| + gamma' |y|_W.
  Underflow adds at most the format's smallest normal number (tiny, which
  also covers flush-to-zero) to each operation: in all at most
  tiny (4 sqrt(k) ||c|| + 5k + 5) to each delta_i, so e gains
  sqrt(sum W) times that, and a = 3 tiny n (1 + max W) to S. Then
  |W . R^2 - T| <= e (2 |r|_W + e); squaring and the weighted sum add
  gamma_{n+2} W . R^2 in float32 (gamma_{n+1} in float64) and a; and
  rho = sqrt((S + a) / (1 - gamma_{n+2})) + e >= |r|_W. Together
      |S - T| <= gamma_{n+2} (rho + e)^2 + a + e (2 rho + e).
  Every count carries 8 more roundings for evaluating it. The float32
  pass's width b (``_LooErrorBound.width``) is this bound for float32 plus
  the same bound for the float64 kernel, with the same rho, so
  |S32 - the kernel's value| <= b; values beyond float32's range make S32 or
  b not finite.
- Confirm on columns. A GEMM's bits for a column depend on which other
  columns it is given: OpenBLAS 0.3.31's DGEMM of a 733 x 500 U with the
  first 1, 255, 257 or 500 of 1024 columns gave other bits than with all
  1024 in hundreds to thousands of entries. So ``_PairValues`` runs the
  exact kernel's arithmetic in float64 on just the candidate pairs of the
  targets with several, blocks of pairs as in the float32 pass (each
  target's Y and U^T Y columns are copied in once per pass, not per pair),
  and since both those bits and the whole chunk's lie within the float64
  bound b64 of T, the width is 2 b64 (rho now from S). Only targets still
  tied at float64 rounding level, or with duplicate lambdas, reach the
  confirm on the chunk.

- Shape rule. Per lambda and target the screen and the exact kernel both
  do about n k multiply-adds (U times a k-vector, or the stacked rows
  against Y_perp) and an n-long weighted sum. On top, the exact kernel
  writes, subtracts, squares and reads an n-long residual (4n element
  operations), and the screen multiplies by the k x k block (k^2). Counting
  both alike, the screen pays when k^2 < 4n. Timed at n = 60 to 733 (2-vCPU
  x86-64, OpenBLAS at 2 threads) the crossover lay between k^2 = 3n and 8n.
  The replica shape (n = 110, k = 8 or 16) is screened; the wide one
  (n = 733, k = 500) takes the float32 pass, whose SGEMMs run at twice the
  rate of the kernel's DGEMMs. On that shape (wide seed 3, 12 folds) the
  bracket left 31.7 % of (target, lambda) pairs for the pass, the pass left
  6.5 % for the confirm on columns (23 % of targets, about 5.5 candidates
  each) and nothing for the confirm on the chunk. The pass took 333 SGEMMs
  of 468 rows on average and the confirm 144 DGEMMs of 221 rows. A chunk
  took about 0.06 s, bound included, against 0.22 s for the kernel over
  every lambda (2-vCPU x86-64, OpenBLAS 0.3.31 at 2 threads).
- Memory. Targets go in chunks of ``_CHUNK``. The screen's, the float32
  pass's and the confirm's buffers hold no more floats than the exact
  kernel's for a full chunk, (k + n + grid) x ``_CHUNK`` float64s: targets
  go through in passes and the screen's lambdas in blocks if one stacked
  matrix would take more than half of that. Each pair block fits in the
  buffers of its pass's targets, so batching pairs takes no more memory
  than one lambda's targets did. ``standardize`` overwrites the fresh row
  copies ``brain_score`` makes in its buffer, so a fold holds one
  train-sized copy of Y, not two.

Stages pass plain numpy arrays: ``detrend_blocks`` overwrites the caller's
float64 response in place, and ``brain_score``, the one fold loop, takes one
X, column sets of it and one Y and returns a ``ScoreMap`` per set;
``score_subjects``, the one subject loop, fills one sets x subjects x
targets array with it. Every subject is scored against the same X, so what
a fold takes from X alone is one ``_Fold``: its train and test rows, X's
standardized test rows and per set a ``RidgePath`` (the SVD path, the route
and its lambda-only terms), built when the first subject reaches the fold.
``score_subjects`` keeps folds in one ``_Folds`` while their bytes fit in
one response's, which the loop holds anyway, and rebuilds the rest for each
subject; a single response keeps nothing. The screen's stacked rows are not
kept (g k (n + k) floats per fold and set, 5.7 MB at the replica's sizes
against the 0.83 MB of all its folds). Each ``brain_score`` copies every
fold's train rows of Y into one buffer. glibc hands the free top of its
heap back to the system once it passes the trim threshold, and the next
allocation there faults its pages in again; a fresh copy per fold, freed
at the fold's end, set that off at every fold, now at most once a subject.
Minor page faults in the score stage of a fresh replica ``run`` (seeds
31-38, each measured twice, 2-vCPU x86-64): 2,600-17,000 with a copy per fold and
the X work per subject, 1,200-67,600 with kept folds alone (where small
arrays land decides), 1,400-12,700 with kept folds and the buffer.
Finiteness is checked once here, in ``ridge_solve`` and ``RidgePath``; the
CLI's inputs were already checked when read.

Everything runs in the calling thread; the only parallelism is the BLAS
library's. Results are bit-identical across reruns at a fixed BLAS thread
count. Across thread counts they agree to about 1e-15, because BLAS may split
a product differently (OpenBLAS at 1 thread versus 2 or more).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

#: 20 log-spaced penalties from 10 to 1e8 inclusive.
DEFAULT_LAMBDA_GRID = np.logspace(1.0, 8.0, 20)

#: Lambda selection runs over fixed-size chunks of targets, so its buffers
#: (the exact kernel's k x _CHUNK shrunk coefficients, n x _CHUNK residuals
#: and grid x _CHUNK LOO errors, or the screen's as many floats) stay bounded
#: however many targets a solve has.
_CHUNK = 1024

#: float64's smallest normal number, which every float64 bound adds per operation for underflow.
_TINY = float(np.finfo(np.float64).tiny)


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

    Zero-variance columns are mapped to zeros. ``train``, a float64 array,
    is overwritten with its standardized values, so a caller that needs it
    afterwards passes a copy. Returns (train_std, applied_std, mean, std),
    where train_std is ``train`` itself.
    """
    if train.shape[0] < 2:
        raise ValueError("need >= 2 training rows to standardize")
    mean = train.mean(axis=0)
    out_train = np.subtract(train, mean, out=train)
    # np.std's own arithmetic on the deviations already in place: the same bits
    # without subtracting the mean a second time
    std = np.sqrt(np.square(out_train).sum(axis=0) / train.shape[0])
    safe = np.where(std > 0, std, 1.0)
    out_train /= safe
    out_train[:, std == 0] = 0.0
    out_apply = None
    if apply_to is not None:
        out_apply = (apply_to - mean) / safe
        out_apply[:, std == 0] = 0.0
    return out_train, out_apply, mean, std


def ridge_solve(X: np.ndarray | RidgePath, Y: np.ndarray,
                grid: np.ndarray | None = None) -> RidgeFit:
    """Per-target ridge with exact-LOO lambda selection over the grid.

    X and Y are assumed already standardized (no intercept is fit); a 1-D Y
    is one target. A single thin SVD of X serves every lambda. Each target
    gets the lambda whose closed-form LOO mean squared error, as
    ``_exact_loo_mse`` computes it, is smallest (ties go to the larger
    lambda), and that lambda is refit on the full training set.

    Tall designs (``_screen_pays``) screen every lambda at once, others rule
    lambdas out with a norm bracket and take one float32 pass on the rest;
    either way a rounding-error bound leaves each target
    the lambdas it could still pick, and ``_exact_loo_mse`` runs only for
    those. Both routes choose the lambdas the kernel over every lambda
    would (module docstring). ``X`` is an (n, p) array or a ``RidgePath`` of
    one, which a caller solving several Y against one X builds once; ``grid``
    is then None or the path's own. ``grid`` must be a non-empty 1-D array of
    finite lambdas > 0.
    """
    if isinstance(X, RidgePath):
        path = X
        if grid is not None and not np.array_equal(grid, path.grid):
            raise ValueError("ridge_solve's grid differs from its RidgePath's")
    else:
        path = RidgePath(X, grid)
    U, s, Vt, D, W = path.U, path.s, path.Vt, path.D, path.W
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2 or Y.shape[0] != U.shape[0]:
        raise ValueError(f"ridge_solve needs Y (n,) or (n, targets) for X's n = {U.shape[0]} "
                         f"rows; got {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("non-finite inputs to ridge_solve")
    UtY = U.T @ Y
    n_targets = Y.shape[1]
    chosen_idx = np.empty(n_targets, dtype=np.intp)
    for a in range(0, n_targets, _CHUNK):
        chunk = slice(a, min(a + _CHUNK, n_targets))
        Yc, UtYc = Y[:, chunk], UtY[:, chunk]
        if path.screen:
            cand = _screen(path, Yc, UtYc)
        else:
            bound = _LooErrorBound(U, D, W, Yc, UtYc, path.defect)
            cand = _float32_screen(U, D, W, Yc, UtYc, bound)
            _confirm_on_columns(U, D, W, Yc, UtYc, cand, bound)
        chosen_idx[chunk] = _confirm_on_chunk(U, D, W, Yc, UtYc, cand)

    # each column of U^T Y is read by one lambda group only, so with p == k its
    # weights can overwrite it: the refit then takes no p x targets array of its own
    weights = UtY if Vt.shape[1] == U.shape[1] else np.empty((Vt.shape[1], n_targets))
    for gi in range(len(path.grid)):
        cols = np.flatnonzero(chosen_idx == gi)
        if cols.size == 0:
            continue
        shrink = s / (s**2 + path.grid[gi])
        part = np.take(UtY, cols, axis=1)
        part *= shrink[:, None]  # the product's bits, in the one temporary
        weights[:, cols] = Vt.T @ part
    return RidgeFit(weights=weights, chosen_lambda=path.grid[chosen_idx])


def _svd_path(X: np.ndarray, grid: np.ndarray):
    """Thin SVD U s Vt of X, shrinkage D (grid x k) and LOO weights W (grid x n).

    D = s^2 / (s^2 + lambda) and W_i = 1 / (n (1 - h_i)^2), h the hat matrix's diagonal.
    """
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    s2 = s**2
    D = s2 / (s2 + grid[:, None])
    W = 1.0 / (X.shape[0] * (1.0 - D @ (U**2).T) ** 2)
    return U, s, Vt, D, W


class RidgePath:
    """What ``ridge_solve`` takes from X and the grid alone, whatever the Y.

    ``_svd_path``'s U, s, Vt, D and W, the route (``screen``, by
    ``_screen_pays``) and the route's terms that depend on lambda only: the
    tall screen's ``keep`` = 1 - D and ``nu`` = W . |U_i|^2 per lambda, or
    the wide route's Gram ``defect`` of U (``_gram_defect``). X must be a
    finite (n, p) array with n >= 2 and p >= 1; ``grid`` a non-empty 1-D
    array of finite lambdas > 0, ``DEFAULT_LAMBDA_GRID`` if None.
    """

    def __init__(self, X, grid: np.ndarray | None = None):
        grid = DEFAULT_LAMBDA_GRID if grid is None else np.asarray(grid, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError(f"ridge_solve needs a non-empty 1-D lambda grid; got shape {grid.shape}")
        bad = np.flatnonzero(~(np.isfinite(grid) & (grid > 0)))
        if bad.size:
            raise ValueError(f"lambda grid value {float(grid[bad[0]])} at index {bad[0]} "
                             f"must be finite and > 0")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] == 0:
            raise ValueError(f"ridge_solve needs X (n, p) with p >= 1; got {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite inputs to ridge_solve")
        if X.shape[0] < 2:
            raise ValueError("need >= 2 training rows")
        self.grid = grid
        self.U, self.s, self.Vt, self.D, self.W = _svd_path(X, grid)
        self.screen = _screen_pays(*self.U.shape)
        if self.screen:
            self.keep = 1.0 - self.D
            self.nu = self.W @ np.einsum("ik,ik->i", self.U, self.U)
        else:
            self.defect = _gram_defect(self.U)

    @staticmethod
    def nbytes(n: int, p: int, g: int) -> int:
        """At least the bytes of the arrays a path of an n x p X over g lambdas holds."""
        k = min(n, p)
        return 8 * (n * k + k + k * p + 2 * g * k + g * n + g)


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


def _gamma(j: int, dtype=np.float64) -> float:
    """gamma_j = j u / (1 - j u), the relative error of j roundings in ``dtype`` (module docstring)."""
    u = float(np.finfo(dtype).eps) / 2
    return j * u / (1.0 - j * u)


#: b / (2 gamma_N) must lie in this range at every lambda, or the screen's b is
#: infinite: outside it, squares inside the screen or the exact kernel could
#: leave float64's normal range, where the bound does not hold.
_Q_RANGE = (np.sqrt(_TINY), np.sqrt(np.finfo(np.float64).max) / 2)


def _candidates(S, b, among) -> np.ndarray:
    """Candidate mask (grid x targets) by the module docstring's candidate rule, within ``among``."""
    with np.errstate(over="ignore", invalid="ignore"):
        hi = np.add(S, b)
        wild = ~(np.isfinite(hi) | ~among).all(axis=0)
        hi[~among] = np.inf
        best = hi.min(axis=0)
        np.subtract(S, b, out=hi)
        cand = among & (hi <= best)
    cand[:, wild] = among[:, wild]
    return cand


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


def _confirm_on_chunk(U, D, W, Yc, UtYc, cand) -> np.ndarray:
    """What ``_last_argmin`` of ``_exact_loo_mse`` over every lambda picks, per target.

    ``cand`` (grid x targets) must hold every lambda at which a target's
    exact value is its minimum. A target with one candidate takes it; an
    all-zero target has LOO error exactly 0 at every lambda and takes the
    largest. For the rest, ``_exact_loo_mse`` runs on the whole chunk for the
    lambdas some of them could pick, and each picks among its own candidates.
    """
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


def _screen(path, Yc, UtYc) -> np.ndarray:
    """Candidate mask (grid x targets) by ``_candidates`` over every lambda of a ``RidgePath``.

    S is the screened LOO error and b its bound (module docstring). Targets
    go through in passes of ``width`` and lambdas in blocks of ``blk``, sized
    so that the buffers hold no more floats than ``_exact_loo_mse`` takes
    for a full chunk, (k + n + grid) x ``_CHUNK``. The stacked rows are built
    per solve, not kept in the path: at g k (n + k) floats per fold and set
    they would outgrow the kept folds' budget (module docstring).
    """
    U, W, keep = path.U, path.W, path.keep
    n, k = U.shape
    g, m = W.shape[0], Yc.shape[1]
    keep2 = 2.0 * keep
    gamma2 = 2.0 * _gamma(4 * n + 14 * k + 31)
    nu2 = gamma2 * path.nu  # 2 gamma nu per lambda
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
    S, B = np.empty((2, g, width))
    every = np.ones((g, width), dtype=bool)
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
        B += np.multiply.outer(nu2, np.einsum("kj,kj->j", C, C))
        tame = (B.min(axis=0) >= gamma2 * _Q_RANGE[0]) & (B.max(axis=0) <= gamma2 * _Q_RANGE[1])
        B[:, ~tame] = np.inf
        cand[:, cols] = _candidates(S, B, every)
    return cand


#: Roundings the bound counts (module docstring) on top of k in the residual's
#: U D c term, alone in its y term and on top of n in the weighted sum, per
#: precision; each includes 8 that cover evaluating the bound in float64.
_ROUNDINGS = {np.float32: (13, 10, 10), np.float64: (10, 9, 9)}


def _gram_defect(U) -> float:
    """epsilon >= ||U^T U - I||_2 for the computed U, from its Gram product (module docstring)."""
    n, k = U.shape
    G = U.T @ U
    G[np.diag_indices(k)] -= 1.0
    fro = float(np.sqrt(np.einsum("ij,ij->", G, G)))
    fro_u = float(np.einsum("ik,ik->", U, U))  # ||U||_F^2 up to rounding
    return ((fro + k * np.sqrt(_TINY)) * (1.0 + _gamma(k * k + 8))
            + _gamma(n + 8) * (fro_u * (1.0 + _gamma(n * k + 8)) + n * k * _TINY)
            + 3 * n * k * _TINY)


class _LooErrorBound:
    """Forward-error bound on LOO errors computed like ``_exact_loo_mse``, per lambda and target.

    Holds the chunk's norms, ||D c|| and sqrt(W . y^2) per lambda and target,
    sqrt(nu), sqrt(sum W) and max W per lambda and ||c|| per target (module
    docstring); ``cols`` picks targets of the chunk. It also holds the
    bracket: ``floor``, a lower bound on the float64 kernel's value per lambda
    and target, each target's ``anchor`` lambda, and ``live``, the pairs
    ``_float32_screen`` has not ruled out. ``defect`` is ``_gram_defect(U)``,
    which a caller with several chunks computes once.
    """

    def __init__(self, U, D, W, Yc, UtYc, defect=None):
        self.n, self.k = U.shape
        g, m = W.shape[0], Yc.shape[1]
        self.root_nu = np.sqrt(W @ np.einsum("ik,ik->i", U, U))[:, None]
        self.root_sum_w = np.sqrt(W.sum(axis=1))[:, None]
        self.max_w = W.max(axis=1)[:, None]
        c2 = np.einsum("kj,kj->j", UtYc, UtYc)
        self.norm_c = np.sqrt(c2)
        self.norm_dc, self.norm_y = np.empty((2, g, m))
        r2, y2 = np.empty((g, m)), np.empty(m)
        D2, K2 = np.square(D), np.square(1.0 - D)
        for a in range(0, m, 128):  # squares of 128 targets at a time
            cols = slice(a, a + 128)
            sq = np.square(UtYc[:, cols])
            self.norm_dc[:, cols] = D2 @ sq
            r2[:, cols] = K2 @ sq
            sq = np.square(Yc[:, cols])
            self.norm_y[:, cols] = W @ sq
            y2[cols] = sq.sum(axis=0)
        np.sqrt(self.norm_dc, out=self.norm_dc)
        np.sqrt(self.norm_y, out=self.norm_y)
        self._bracket(W, y2, c2, r2, _gram_defect(U) if defect is None else defect)
        self.live = np.ones((g, m), dtype=bool)

    def _bracket(self, W, y2, c2, r2, defect):
        """Set ``floor`` and ``anchor`` from the norm bracket (module docstring).

        ``r2`` holds the computed ||(1 - D) c||^2 and is overwritten.
        """
        n, k = self.n, self.k
        g = _gamma(n + k + 16)
        Y2 = y2 * (1.0 + 2.0 * g) + 3 * n * _TINY  # >= ||y||^2
        C2 = c2 * (1.0 + 2.0 * g) + 3 * k * _TINY  # >= ||c||^2
        err = (g * (Y2 + 3.0 * C2) + defect * C2 + 10 * (n + k) * _TINY
               + 2.0 * np.sqrt(C2) * (_gamma(n) * np.sqrt(k * (1.0 + defect) * Y2)
                                      + 3 * n * np.sqrt(k) * _TINY))
        r2 += y2 - c2
        lo = np.maximum(r2 - err, 0.0)
        lo *= W.min(axis=1)[:, None]
        r2 += err
        r2 *= self.max_w  # hi, the bracket's upper end
        with np.errstate(over="ignore", invalid="ignore"):
            self.floor = lo - _error(self._terms(np.float64), np.sqrt(r2))
            self.floor[:, ~np.isfinite(r2).all(axis=0)] = -np.inf
        lo += r2
        self.anchor = np.argmin(lo, axis=0)

    def _terms(self, dtype, cols=slice(None)):
        """(e, a, gamma of the weighted sum) for values computed in ``dtype``."""
        tiny = float(np.finfo(dtype).tiny)
        j_dc, j_y, j_sum = (self.k + _ROUNDINGS[dtype][0], _ROUNDINGS[dtype][1],
                            self.n + _ROUNDINGS[dtype][2])
        g_dc, g_y, g_sum = (_gamma(j, dtype) for j in (j_dc, j_y, j_sum))
        slack = tiny * (4.0 * np.sqrt(self.k) * self.norm_c[cols] + 5 * self.k + 5)
        e = (g_dc * self.root_nu * self.norm_dc[:, cols] + g_y * self.norm_y[:, cols]
             + self.root_sum_w * slack)
        return e, 3.0 * tiny * self.n * (1.0 + self.max_w), g_sum

    def width(self, S, dtype, cols=slice(None)):
        """b >= |S - the float64 kernel's value| for S computed in ``dtype``: the bound
        for ``dtype`` plus the float64 kernel's, both at rho from S (module docstring)."""
        terms = e, a, g_sum = self._terms(dtype, cols)
        rho = np.sqrt((S + a) / (1.0 - g_sum)) + e
        b = _error(terms, rho)
        return b + (b if dtype is np.float64 else _error(self._terms(np.float64, cols), rho))


def _error(terms, rho):
    """Bound on |computed value - exact value| from ``_LooErrorBound._terms`` and ``rho``."""
    e, a, g_sum = terms
    return g_sum * np.square(rho + e) + a + e * (2.0 * rho + e)


class _PairValues:
    """``_exact_loo_mse``'s per-lambda arithmetic at chosen (lambda, target) pairs, in ``dtype``.

    ``load`` copies a pass of up to ``width`` targets in as rows of Y and of
    C = U^T Y. ``values`` takes the pairs of a grid x pass mask in lambda
    order and runs them in blocks of ``width``: gather the coefficient rows,
    scale each lambda's run by its row of D, one GEMM with U^T, gather the Y
    rows, subtract and square, then one GEMV per lambda's run with its row
    of W. Each pair gets the roundings the bound counts: the shrink, a k-term
    dot product, the subtract, the square and an n-term weighted sum. The
    buffers are the rows of C (width x k) and one 3 x width x n block; the
    shrunk rows take the space the Y rows are gathered into.
    """

    def __init__(self, U, D, W, width, dtype):
        n, k = U.shape
        self.U, self.D, self.W = (a.astype(dtype, copy=False) for a in (U, D, W))
        self.C = np.empty((width, k), dtype)
        self.Y, self.gathered, self.R = np.empty((3, width, n), dtype)
        self.sums = np.empty(width, dtype)

    def load(self, Yc, UtYc) -> None:
        """Copy the pass's targets, the columns of ``Yc`` and ``UtYc``, in as rows."""
        w = Yc.shape[1]
        np.copyto(self.Y[:w], Yc.T)
        np.copyto(self.C[:w], UtYc.T)

    def values(self, at, out) -> None:
        """Set ``out`` (grid x pass width) to the value at every pair where ``at`` is True."""
        width, k = self.C.shape
        lams, targets = np.nonzero(at)  # in lambda order
        for a in range(0, lams.size, width):
            lam, t = lams[a:a + width], targets[a:a + width]
            b = lam.size
            runs = [0, *(np.flatnonzero(lam[1:] != lam[:-1]) + 1).tolist(), b]
            shrunk = self.gathered.reshape(-1)[:b * k].reshape(b, k)
            np.take(self.C, t, axis=0, out=shrunk, mode="clip")
            for r0, r1 in zip(runs, runs[1:]):
                shrunk[r0:r1] *= self.D[lam[r0]]
            R = self.R[:b]
            np.matmul(shrunk, self.U.T, out=R)
            Yr = np.take(self.Y, t, axis=0, out=self.gathered[:b], mode="clip")
            np.subtract(Yr, R, out=R)
            np.square(R, out=R)
            for r0, r1 in zip(runs, runs[1:]):
                np.matmul(R[r0:r1], self.W[lam[r0]], out=self.sums[r0:r1])
            out[lam, t] = self.sums[:b]


def _float32_screen(U, D, W, Yc, UtYc, bound) -> np.ndarray:
    """Candidate mask (grid x targets) from one float32 pass of the exact kernel's arithmetic.

    S32 is ``_exact_loo_mse``'s per-lambda arithmetic in float32, with width
    ``bound.width`` (module docstring). Each target first takes S32 at its
    anchor lambda; a lambda whose ``bound.floor`` lies above the anchor's
    S32 + b cannot win and leaves ``bound.live``, and S32 is computed only
    for the live pairs, which ``_candidates`` then narrows. Targets go
    through in passes sized so that the buffers hold no more floats than
    ``_exact_loo_mse`` takes for a full chunk, (k + n + grid) x ``_CHUNK``
    float64s; ``_PairValues`` runs each step's pairs in blocks of a pass's width.
    """
    n, k = U.shape
    g, m = W.shape[0], Yc.shape[1]
    budget32 = 2 * (k + n + g) * _CHUNK - n * k - 9 * g * m  # float32 slots left
    width = max(1, min(m, budget32 // (3 * n + k)))
    width = -(-m // -(-m // width))  # passes of equal width, the last one shorter by < passes
    pairs = _PairValues(U, D, W, width, np.float32)
    S32 = np.zeros((g, m), np.float32)
    live = bound.live
    # values beyond float32's range turn into inf or nan; their targets keep their live lambdas
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, m, width):
            cols = slice(a, min(a + width, m))
            w = cols.stop - a
            pairs.load(Yc[:, cols], UtYc[:, cols])
            anchored = np.zeros((g, w), dtype=bool)
            anchored[bound.anchor[cols], np.arange(w)] = True
            pairs.values(anchored, S32[:, cols])
            S = S32[:, cols].astype(np.float64)
            upper = (S + bound.width(S, np.float32, cols))[bound.anchor[cols], np.arange(w)]
            live[:, cols] = ~(bound.floor[:, cols] > upper)  # a nan on either side drops nothing
            pairs.values(live[:, cols] & ~anchored, S32[:, cols])
        # the buffers live until return: small arrays made after them then
        # leave whole the space they free, which the refit's weights reuse (p > k)
        S = S32.astype(np.float64)
        return _candidates(S, bound.width(S, np.float32), live)


def _confirm_on_columns(U, D, W, Yc, UtYc, cand, bound) -> None:
    """Drop candidates by float64 values computed on column subsets, in place.

    ``_PairValues`` computes in float64 the value at every candidate pair of
    the nonzero targets with more than one candidate, a block of pairs per
    DGEMM, and ``_candidates`` narrows them with b = 2 b64 (module docstring).
    The targets go in passes whose row copies, the gathers that make them and
    the pair buffers fit in (k + n + grid) x ``_CHUNK`` float64s beside S.
    """
    n, k = U.shape
    g = W.shape[0]
    multi = np.flatnonzero((np.count_nonzero(cand, axis=0) > 1) & Yc.any(axis=0))
    if multi.size == 0:
        return
    sub = cand[:, multi]
    S = np.full(sub.shape, np.inf)
    width = max(1, min(multi.size, ((k + n + g) * _CHUNK - g * multi.size) // (4 * n + 2 * k)))
    width = -(-multi.size // -(-multi.size // width))
    pairs = _PairValues(U, D, W, width, np.float64)
    for a in range(0, multi.size, width):
        cols = multi[a:a + width]
        pairs.load(Yc[:, cols], UtYc[:, cols])
        pairs.values(sub[:, a:a + width], S[:, a:a + width])
    del pairs  # the bound's temporaries below take its space
    with np.errstate(over="ignore", invalid="ignore"):
        cand[:, multi] = _candidates(S, bound.width(S, np.float64, multi), sub)


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


class _Fold:
    """Fold k's work on X alone: its train rows ``tr``, test rows ``te``, X's
    standardized test rows ``Xte`` and, per column set, the ``RidgePath`` of
    X's standardized train rows (``path``).

    A kept fold holds each path from its first use and then drops the train
    rows; any other fold builds a set's path each time it is asked for.
    """

    def __init__(self, X, blocks, k, sets, grid, kept):
        self.tr = np.concatenate([np.arange(a, b) for j, (a, b) in enumerate(blocks) if j != k])
        self.te = np.arange(*blocks[k])
        self._Xtr, self.Xte, _, _ = standardize(X[self.tr], X[self.te])
        self._sets, self._grid = sets, grid
        self._paths = [None] * len(sets) if kept else None

    def path(self, j) -> RidgePath:
        if self._paths is None:
            return RidgePath(self._Xtr[:, self._sets[j]], self._grid)
        if self._paths[j] is None:
            self._paths[j] = RidgePath(self._Xtr[:, self._sets[j]], self._grid)
            if all(p is not None for p in self._paths):
                self._Xtr = None
        return self._paths[j]


class _Folds:
    """The ``_Fold`` of each fold of X, shared by every Y scored against it.

    ``folds[k]`` is fold k's. A fold is kept from its first use if its bytes
    fit in what is left of ``budget``; one that does not is built anew on
    each use, for each Y.
    """

    def __init__(self, X, blocks, sets, grid, budget):
        self.X = np.asarray(X, dtype=np.float64)
        self._blocks, self._sets, self._grid = blocks, sets, grid
        self._left = budget
        self._kept = [None] * len(blocks)

    def __getitem__(self, k) -> _Fold:
        if self._kept[k] is not None:
            return self._kept[k]
        size = self._nbytes(k)
        kept = size <= self._left
        fold = _Fold(self.X, self._blocks, k, self._sets, self._grid, kept)
        if kept:
            self._left -= size
            self._kept[k] = fold
        return fold

    def _nbytes(self, k) -> int:
        """At least the bytes fold k holds once kept: its indices, test rows and paths."""
        blocks, p = self._blocks, self.X.shape[1]
        n_te = blocks[k][1] - blocks[k][0]
        n = sum(b - a for j, (a, b) in enumerate(blocks) if j != k)
        g = len(DEFAULT_LAMBDA_GRID if self._grid is None else self._grid)
        return 8 * (n + n_te + n_te * p) + sum(RidgePath.nbytes(n, len(range(p)[cols]), g)
                                               for cols in self._sets)


def brain_score(
    X: np.ndarray,
    Y: np.ndarray,
    blocks: list[tuple[int, int]],
    sets: list[slice],
    grid: np.ndarray | None = None,
    folds: _Folds | None = None,
) -> list[ScoreMap]:
    """Cross-validated encoding score per target, one ``ScoreMap`` per column slice in ``sets``.

    Fold k of the >= 3 half-open row ranges in ``blocks`` tests on block k and
    trains on the others in order. Per fold: standardize X and Y on the train
    rows once; for each set, fit ridge with per-target LOO lambda selection on
    its columns, predict the held-out block and correlate per target.
    Standardizing is column-wise, so a set scores bit for bit as its columns
    alone. A score is the mean of the per-fold correlations.

    The work on X alone comes from ``folds``, a ``_Folds`` of this X,
    ``blocks``, ``sets`` and ``grid``, which a caller scoring several Y keeps
    across calls; without it the call builds its own and keeps nothing.
    """
    if len(blocks) < 3:
        raise ValueError(f"need >= 3 blocks for leave-one-block-out, got {len(blocks)}")
    folds = _Folds(X, blocks, sets, grid, 0) if folds is None else folds
    Yd = np.asarray(Y, dtype=np.float64)
    if folds.X.shape[0] != Yd.shape[0]:
        raise ValueError(f"X has {folds.X.shape[0]} rows, Y has {Yd.shape[0]}; must align at TR")
    r_per_fold = np.zeros((len(sets), len(blocks), Yd.shape[1]))
    flagged = np.zeros((len(sets), Yd.shape[1]), dtype=bool)
    # Every fold's train rows of Y go into one buffer: a fresh copy per fold, freed
    # at the fold's end, let glibc trim the heap top and fault it back in at the
    # next fold (module docstring).
    sizes = [b - a for a, b in blocks]
    rows = np.empty((sum(sizes) - min(sizes), Yd.shape[1]))
    for k in range(len(blocks)):
        fold = folds[k]
        Ytr = np.take(Yd, fold.tr, axis=0, out=rows[:fold.tr.size])
        Ytr, Yte, _, _ = standardize(Ytr, Yd[fold.te])
        for j, cols in enumerate(sets):
            fit = ridge_solve(fold.path(j), Ytr, grid)
            pred = fold.Xte[:, cols] @ fit.weights
            r_per_fold[j, k], fl = _pearson_columns(Yte, pred)
            flagged[j] |= fl
            # Free each solve's largest arrays before the next allocates its own.
            # Freeing the small ones too made glibc return and re-fault heap pages
            # every fold, which cost 0.3-0.7 s per 480-solve replica run.
            del fit
    return [ScoreMap(r_mean=r.mean(axis=0), r_per_fold=r, undefined=fl)
            for r, fl in zip(r_per_fold, flagged)]


def score_subjects(X: np.ndarray, responses: Iterable[np.ndarray], n_subjects: int,
                   blocks: list[tuple[int, int]], sets: list[slice],
                   grid: np.ndarray | None = None) -> np.ndarray:
    """Sets x subjects x targets mean scores of X's column ``sets``, one ``brain_score`` per response.

    ``responses`` yields the ``n_subjects`` >= 1 responses one at a time, so a
    caller reading them from files holds one at once. Every response is
    scored against the same X, so one ``_Folds`` serves them all. Its budget
    is the first response's bytes, which the loop holds anyway; a single
    response keeps nothing.
    """
    scores = folds = None
    for i, Y in zip(range(n_subjects), responses, strict=True):
        if scores is None:
            scores = np.empty((len(sets), n_subjects, Y.shape[1]))
            folds = _Folds(X, blocks, sets, grid, np.asarray(Y).nbytes if n_subjects > 1 else 0)
        scores[:, i] = [sm.r_mean for sm in brain_score(X, Y, blocks, sets, grid, folds)]
    return scores
