"""Score contrasts (delta-R maps) between concatenation levels or models.

Contrasts take per-target mean score arrays (``encode.ScoreMap.r_mean``),
which is all the pipeline keeps of each fit, and return arrays. Level L is
the column prefix of the first L + 1 feature matrices in the one
column-stack the CLI builds, and ``encode.score_subjects`` scores every level
of every subject into one levels x subjects x targets array, whose level
blocks ``delta_layerwise`` takes as they are.
"""

from __future__ import annotations

import numpy as np


def delta_vs_baseline(scores_full: np.ndarray, scores_baseline: np.ndarray) -> np.ndarray:
    """Per-target delta-R, full minus baseline; both must cover the same targets."""
    if scores_full.shape != scores_baseline.shape:
        raise ValueError(f"target mismatch: {scores_full.shape} vs {scores_baseline.shape}")
    return scores_full - scores_baseline


def delta_layerwise(scores: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Successive-level contrasts in one array: level L - level L - 1 for each L >= 1.

    ``scores`` holds one equal-shaped score array per level, as a list or along
    the first axis of an array. The level axis of the result comes just before
    the target axis: (levels - 1) x targets for per-level target arrays,
    subjects x (levels - 1) x targets for levels x subjects x targets. The
    differences telescope: summing them over levels recovers the top level
    minus level 0.
    """
    if len(scores) < 2:
        raise ValueError("need scores for at least levels 0 and 1")
    shape = np.shape(scores[0])
    deltas = np.empty((*shape[:-1], len(scores) - 1, shape[-1]))
    for L in range(1, len(scores)):
        if np.shape(scores[L]) != shape:
            raise ValueError(f"target mismatch: {np.shape(scores[L])} vs {shape}")
        np.subtract(scores[L], scores[L - 1], out=deltas[..., L - 1, :])
    return deltas
