"""Synthetic ground-truth generators for validating the pipeline end to end.

Responses are built the same way the real pipeline assumes: white-noise
features at activation rate, HRF-convolved and downsampled to scan rate,
then mixed linearly into targets with Gaussian noise at a controlled
signal-to-noise variance ratio. Everything is driven by the counter-based
generator, so a config (including its seed) pins the dataset bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .contrast import delta_vs_baseline
from .encode import brain_score
from .hemo import MIN_OVERSAMPLE_HZ, hrf_align
from .rng import CounterRng


@dataclass
class SynthConfig:
    n_time_activation: int = 6000  # frames at activation rate
    n_scans: int = 60
    n_features: int = 16
    n_targets: int = 50
    n_subjects: int = 1
    n_blocks: int = 12
    snr: float | None = 1.0  # None = noiseless; 0 = pure noise
    seed: int = 0
    activation_rate: float = 50.0
    tr_seconds: float = 2.0

    def __post_init__(self) -> None:
        for name in ("n_time_activation", "n_scans", "n_features", "n_targets", "n_subjects",
                     "n_blocks"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        # bools are refused; another non-number fails a comparison with TypeError
        if self.snr is not None and (isinstance(self.snr, bool) or not self.snr >= 0):
            raise ValueError(f"snr must be null or a number >= 0, got {self.snr!r}")
        rate, tr = self.activation_rate, self.tr_seconds
        if isinstance(rate, bool) or isinstance(tr, bool) or not (
                MIN_OVERSAMPLE_HZ <= rate < np.inf and 0 < tr < np.inf and rate > 1.0 / tr):
            raise ValueError(f"need a finite activation_rate >= {MIN_OVERSAMPLE_HZ:g} Hz above the "
                             f"finite scan rate 1/tr_seconds > 0, got activation_rate={rate!r}, "
                             f"tr_seconds={tr!r}")
        # scans must extend past the last block start and stay within support
        if self.n_scans * self.tr_seconds * self.activation_rate > self.n_time_activation + 1:
            needed = int(np.ceil(self.n_scans * self.tr_seconds * self.activation_rate))
            raise ValueError(f"n_time_activation={self.n_time_activation} too short; need ~{needed}")


def even_blocks(n_rows: int, n_blocks: int) -> list[tuple[int, int]]:
    """Split rows into n_blocks contiguous near-equal ranges."""
    edges = np.linspace(0, n_rows, n_blocks + 1).round().astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(n_blocks)]


def _activations(cfg: SynthConfig, seed: int) -> np.ndarray:
    """White-noise model features at activation rate: stream 0 of ``seed``."""
    return CounterRng(seed, stream=0).normal((cfg.n_time_activation, cfg.n_features))


def _mix_response(
    x_tr: np.ndarray, cfg: SynthConfig, rng: CounterRng
) -> tuple[np.ndarray, np.ndarray]:
    w = rng.normal((cfg.n_features, cfg.n_targets))
    signal = x_tr @ w
    if cfg.snr is None:
        return signal, w
    if cfg.snr == 0:
        return rng.normal(signal.shape), w
    # SNR is defined on within-block (per-block demeaned) signal variance:
    # blocked scoring only ever sees within-block fluctuations, so the
    # global variance of the HRF-smoothed signal would overstate the SNR.
    blocks = even_blocks(signal.shape[0], min(cfg.n_blocks, signal.shape[0]))
    demeaned = np.concatenate([signal[a:b] - signal[a:b].mean(axis=0) for a, b in blocks])
    sig_var = demeaned.var(axis=0)
    noise_std = np.sqrt(np.where(sig_var > 0, sig_var / cfg.snr, 1.0))
    return signal + rng.normal(signal.shape) * noise_std, w


#: Cohort presets: ``linear`` mixes the one feature set into every subject,
#: ``null`` gives pure-noise responses, and ``replica`` mixes feature set B
#: into every subject next to an independent distractor A.
PRESETS = ("linear", "null", "replica")


@dataclass
class Cohort:
    """A preset's named scan-rate features plus the recipe for each subject.

    Streams: features come from stream 0 of the seed (model B of a replica
    cohort from stream 0 of seed + 1); subject i comes from stream i + 1,
    or 1000 + i for ``replica``.
    """

    preset: str
    cfg: SynthConfig
    names: list[str]  # "synth", or "model_a" and "model_b"
    features: list[np.ndarray]  # scans x features, one per name

    def subjects(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Each subject's response and mixing weights (None under the null), one at a time."""
        cfg = self.cfg
        for i in range(cfg.n_subjects):
            if self.preset == "null":
                yield CounterRng(cfg.seed, stream=i + 1).normal((cfg.n_scans, cfg.n_targets)), None
            else:
                # the last feature set carries the signal: model B of a replica cohort
                stream = 1000 + i if self.preset == "replica" else i + 1
                yield _mix_response(self.features[-1], cfg, CounterRng(cfg.seed, stream=stream))

    def scores(self, grid: np.ndarray | None = None) -> np.ndarray:
        """Subjects x names x targets mean scores: each subject's response against
        the column-stack of the features, one disjoint column set per name."""
        X = np.hstack(self.features)
        edges = np.cumsum([0] + [x.shape[1] for x in self.features])
        sets = [slice(a, b) for a, b in zip(edges, edges[1:])]
        blocks = even_blocks(self.cfg.n_scans, self.cfg.n_blocks)
        return np.array([[sm.r_mean for sm in brain_score(X, y, blocks, sets, grid)]
                         for y, _ in self.subjects()])


def build_cohort(preset: str, cfg: SynthConfig) -> Cohort:
    """The preset's cohort; its features are drawn here, its subjects on demand."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {', '.join(PRESETS)}")
    names = ["model_a", "model_b"] if preset == "replica" else ["synth"]
    features = [
        hrf_align(_activations(cfg, cfg.seed + j), cfg.activation_rate, cfg.n_scans,
                  cfg.tr_seconds, normalize=False)
        for j in range(len(names))
    ]
    return Cohort(preset, cfg, names, features)


def gen_null_cohort(cfg: SynthConfig, grid: np.ndarray | None = None) -> np.ndarray:
    """Subjects x targets score matrix under the null (responses are noise)."""
    return build_cohort("null", cfg).scores(grid)[:, 0]


def gen_replica_cohort(cfg: SynthConfig, grid: np.ndarray | None = None) -> np.ndarray:
    """Subjects x targets delta-R (B minus A) of a two-model comparison with a known winner.

    Feature set B carries the signal that generates every subject's
    response; feature set A is an independent distractor of the same size.
    The resulting delta-R should be positive across subjects.
    """
    scores = build_cohort("replica", cfg).scores(grid)
    return delta_vs_baseline(scores[:, 1], scores[:, 0])
