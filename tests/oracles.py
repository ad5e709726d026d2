"""Reference implementations the tests compare the toolkit against.

Each is the slow, obviously correct form of a fast path in ``voxenc``: the
dense ridge solve and the closed-form LOO residuals for ``encode.ridge_solve``,
and path enumeration for the CTC forward recursion.
"""

import itertools

import numpy as np

from voxenc.ctc import CtcInstance, collapse


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


def count_alignments(T: int, targets: list[int], n_classes: int) -> int:
    """Number of length-T paths that collapse to ``targets``."""
    count = 0
    for path in itertools.product(range(n_classes), repeat=T):
        if collapse(path) == list(targets):
            count += 1
    return count
