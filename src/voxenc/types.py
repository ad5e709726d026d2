"""Core matrix containers shared across the toolkit."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _check_finite(data: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(data)):
        bad = np.argwhere(~np.isfinite(data))[0]
        raise ValueError(f"{what} contains non-finite value at {tuple(int(i) for i in bad)}")


@dataclass
class FeatureMatrix:
    """Time x feature matrix with sampling-rate metadata.

    Rows are time samples at ``sample_rate`` Hz, columns are features
    (spectrogram bins, mel coefficients, or flattened network activations).
    """

    data: np.ndarray
    sample_rate: float
    name: str = ""

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"feature matrix must be 2-D and non-empty, got shape {self.data.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        _check_finite(self.data, "feature matrix")

    @property
    def n_time(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]


@dataclass
class ResponseMatrix:
    """Scan x target matrix at acquisition rate (one column per voxel)."""

    data: np.ndarray
    tr_seconds: float = 2.0
    target_labels: list[str] | None = None

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"response matrix must be 2-D, got shape {self.data.shape}")
        if self.tr_seconds <= 0:
            raise ValueError(f"tr_seconds must be > 0, got {self.tr_seconds}")
        if self.target_labels is not None and len(self.target_labels) != self.data.shape[1]:
            raise ValueError("target_labels length must match column count")
        _check_finite(self.data, "response matrix")

    @property
    def n_scans(self) -> int:
        return self.data.shape[0]

    @property
    def n_targets(self) -> int:
        return self.data.shape[1]


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
