"""Layer-concatenation hierarchy and score contrasts (delta-R maps).

Contrasts work on per-target mean score vectors (``ScoreMap.r_mean``), which
is all the pipeline keeps of each fit.
"""

from __future__ import annotations

import numpy as np

from .types import FeatureMatrix


def build_concat(level: int, features: list[FeatureMatrix]) -> FeatureMatrix:
    """Column-concatenate members 0..level; level 0 is the baseline alone.

    Level L columns are level L-1 columns plus the next member's, so the
    hierarchy is nested by construction.
    """
    if not 0 <= level < len(features):
        raise ValueError(f"level {level} outside available members 0..{len(features) - 1}")
    members = features[: level + 1]
    n_rows = members[0].n_time
    for f in members:
        if f.n_time != n_rows:
            raise ValueError(f"row mismatch: {f.name!r} has {f.n_time} rows, expected {n_rows}")
    data = np.hstack([f.data for f in members])
    name = "+".join(f.name for f in members)
    return FeatureMatrix(data, members[0].sample_rate, name)


def delta_vs_baseline(scores_full: np.ndarray, scores_baseline: np.ndarray) -> np.ndarray:
    """Per-target delta-R, full minus baseline; both must cover the same targets."""
    if scores_full.shape != scores_baseline.shape:
        raise ValueError(f"target mismatch: {scores_full.shape} vs {scores_baseline.shape}")
    return scores_full - scores_baseline


def delta_layerwise(scores: list[np.ndarray]) -> list[np.ndarray]:
    """Successive-level contrasts: one delta per level L >= 1.

    Differences telescope: summing them recovers top level minus level 0.
    """
    if len(scores) < 2:
        raise ValueError("need scores for at least levels 0 and 1")
    return [delta_vs_baseline(scores[L], scores[L - 1]) for L in range(1, len(scores))]
