"""CTC alignment likelihood and greedy decoding.

Class index 0 is the blank. The forward recursion runs in log-space over the
blank-extended target sequence, one numpy step per frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLANK = 0


@dataclass
class CtcInstance:
    """Per-frame class log-probabilities plus the target label sequence."""

    log_probs: np.ndarray  # T x n_classes
    targets: list[int]

    def __post_init__(self) -> None:
        given = np.asarray(self.log_probs)
        self.log_probs = given.astype(np.float64, copy=False)
        if self.log_probs.ndim != 2 or self.log_probs.shape[1] == 0:
            raise ValueError(f"log_probs must be T x n_classes with a blank class, "
                             f"got shape {self.log_probs.shape}")
        # a row normalised in the input's precision sums to 1 within about
        # n_classes rounding steps of that precision: 1e-9 for float64 input
        eps = float(np.finfo(given.dtype).eps) if given.dtype.kind == "f" else 0.0
        tol = max(1e-9, self.log_probs.shape[1] * eps)
        row_mass = np.exp(self.log_probs).sum(axis=1)
        if np.any(np.abs(row_mass - 1.0) > tol):
            bad = int(np.argmax(np.abs(row_mass - 1.0)))
            raise ValueError(f"frame {bad}: probabilities sum to {row_mass[bad]}, not 1")
        n_classes = self.log_probs.shape[1]
        for v in self.targets:
            if not 1 <= v < n_classes:
                raise ValueError(f"target label {v} outside [1, {n_classes})")


def _extend_with_blanks(targets: list[int]) -> np.ndarray:
    ext = np.full(2 * len(targets) + 1, BLANK, dtype=np.int64)
    ext[1::2] = targets
    return ext


def min_frames(targets: list[int]) -> int:
    """Shortest path length: every label plus a blank between repeats."""
    repeats = sum(1 for a, b in zip(targets, targets[1:]) if a == b)
    return len(targets) + repeats


def forward_log_likelihood(log_probs: np.ndarray, extended: np.ndarray) -> float:
    """Alpha recursion over the blank-extended targets; total log-likelihood.

    alpha lives in a buffer behind two -inf slots, so the previous-state and
    skip-transition terms are views of it, and every step writes into
    buffers made once.
    """
    T = log_probs.shape[0]
    S = extended.shape[0]
    emit = log_probs[:, extended]
    buf = np.full(S + 2, -np.inf)
    alpha, prev, skip_from = buf[2:], buf[1:-1], buf[:-2]
    alpha[:2] = emit[0, :2]
    # skip transition s-2 -> s is legal only onto a label differing from l'[s-2]
    can_skip = np.zeros(S, dtype=bool)
    can_skip[2:] = (extended[2:] != BLANK) & (extended[2:] != extended[:-2])
    skip = np.full(S, -np.inf)  # stays -inf wherever the skip is illegal
    total = np.empty(S)
    for t in range(1, T):
        np.copyto(skip, skip_from, where=can_skip)
        np.logaddexp(alpha, prev, out=total)
        np.logaddexp(total, skip, out=total)
        np.add(total, emit[t], out=alpha)
    if S == 1:
        return float(alpha[0])
    return float(np.logaddexp(alpha[-1], alpha[-2]))


def ctc_log_likelihood(inst: CtcInstance) -> float:
    """Log of the summed probability over all valid alignments.

    Returns -inf when the target cannot fit in the available frames, and 0
    for no frames and no targets: the one empty path has probability 1.
    """
    if min_frames(inst.targets) > inst.log_probs.shape[0]:
        return -np.inf
    if inst.log_probs.shape[0] == 0:
        return 0.0
    return forward_log_likelihood(inst.log_probs, _extend_with_blanks(inst.targets))


def collapse(path: list[int] | np.ndarray) -> list[int]:
    """CTC collapse: merge repeats, then drop blanks."""
    out: list[int] = []
    prev = None
    for c in path:
        if c != prev and c != BLANK:
            out.append(int(c))
        prev = c
    return out


def ctc_greedy_decode(log_probs: np.ndarray) -> list[int]:
    """Best-per-frame path, collapsed."""
    return collapse(np.argmax(np.asarray(log_probs), axis=1))
