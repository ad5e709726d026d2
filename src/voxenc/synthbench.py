"""Synthetic ground-truth generators for validating the pipeline end to end.

Responses are built the same way the real pipeline assumes: white-noise
features at activation rate, HRF-convolved and downsampled to scan rate,
then mixed linearly into targets with Gaussian noise at a controlled
signal-to-noise variance ratio. Everything is driven by the counter-based
generator, so a config (including its seed) pins the dataset bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encode import SplitPlan, brain_score, make_split_plan
from .hemo import hrf_align
from .rng import CounterRng
from .types import FeatureMatrix, ResponseMatrix, ScoreMap


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
        for name in ("n_time_activation", "n_scans", "n_features", "n_targets", "n_subjects"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.snr is not None and self.snr < 0:
            raise ValueError("snr must be >= 0")
        # scans must extend past the last block start and stay within support
        if self.n_scans * self.tr_seconds * self.activation_rate > self.n_time_activation + 1:
            needed = int(np.ceil(self.n_scans * self.tr_seconds * self.activation_rate))
            raise ValueError(f"n_time_activation={self.n_time_activation} too short; need ~{needed}")


@dataclass
class SynthDataset:
    features: FeatureMatrix  # at activation rate
    features_at_tr: FeatureMatrix
    response: ResponseMatrix
    true_weights: np.ndarray


def even_blocks(n_rows: int, n_blocks: int) -> list[tuple[int, int]]:
    """Split rows into n_blocks contiguous near-equal ranges."""
    edges = np.linspace(0, n_rows, n_blocks + 1).round().astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(n_blocks)]


def default_plan(cfg: SynthConfig) -> SplitPlan:
    return make_split_plan(even_blocks(cfg.n_scans, cfg.n_blocks))


def _make_features(cfg: SynthConfig, rng: CounterRng) -> tuple[FeatureMatrix, FeatureMatrix]:
    raw = rng.normal((cfg.n_time_activation, cfg.n_features))
    feats = FeatureMatrix(raw, cfg.activation_rate, name="synth")
    at_tr = hrf_align(feats, cfg.n_scans, cfg.tr_seconds, normalize=False)
    return feats, at_tr


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


def gen_linear_dataset(cfg: SynthConfig) -> SynthDataset:
    """One subject's worth of linearly generated data.

    Streams: 0 features, 1 mixing weights and noise.
    """
    feats, at_tr = _make_features(cfg, CounterRng(cfg.seed, stream=0))
    y, w = _mix_response(at_tr.data, cfg, CounterRng(cfg.seed, stream=1))
    return SynthDataset(feats, at_tr, ResponseMatrix(y, cfg.tr_seconds), w)


def gen_null_cohort(cfg: SynthConfig, grid: np.ndarray | None = None) -> np.ndarray:
    """Subjects x targets score matrix under the null (responses are noise).

    Features are shared across subjects (stream 0); subject i's response
    noise comes from stream i+1.
    """
    _, at_tr = _make_features(cfg, CounterRng(cfg.seed, stream=0))
    plan = default_plan(cfg)
    scores = np.empty((cfg.n_subjects, cfg.n_targets))
    for i in range(cfg.n_subjects):
        rng = CounterRng(cfg.seed, stream=i + 1)
        y = rng.normal((cfg.n_scans, cfg.n_targets))
        sm = brain_score(at_tr.data, y, plan, grid)
        scores[i] = sm.r_mean
    return scores


@dataclass
class ReplicaResult:
    delta: np.ndarray  # subjects x targets delta-R (B minus A)
    scores_a: list[ScoreMap]
    scores_b: list[ScoreMap]


def gen_replica_cohort(cfg: SynthConfig, grid: np.ndarray | None = None) -> ReplicaResult:
    """Two-model comparison scenario with a known winner.

    Feature set B carries the signal that generates every subject's
    response; feature set A is an independent distractor of the same size.
    The resulting delta-R (B minus A) should be positive across subjects.
    """
    _, a_tr = _make_features(cfg, CounterRng(cfg.seed, stream=0))
    cfg_b = SynthConfig(**{**cfg.__dict__, "seed": cfg.seed + 1})
    _, b_tr = _make_features(cfg_b, CounterRng(cfg_b.seed, stream=0))
    plan = default_plan(cfg)
    delta = np.empty((cfg.n_subjects, cfg.n_targets))
    all_a, all_b = [], []
    for i in range(cfg.n_subjects):
        rng = CounterRng(cfg.seed, stream=1000 + i)
        y, _ = _mix_response(b_tr.data, cfg, rng)
        sa = brain_score(a_tr.data, y, plan, grid)
        sb = brain_score(b_tr.data, y, plan, grid)
        delta[i] = sb.r_mean - sa.r_mean
        all_a.append(sa)
        all_b.append(sb)
    return ReplicaResult(delta, all_a, all_b)
