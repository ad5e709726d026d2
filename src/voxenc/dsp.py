"""Audio front-end: power spectrogram and mel-filterbank features.

Frame layout is the same for both feature types: frame t covers samples
[t*stride, t*stride + window), and the frame count is
floor((len - window) / stride) + 1.

scipy is imported only inside ``read_wav`` (WAV parsing) and
``resample_to_mono_16k`` (polyphase resampling): importing this module and
computing features do not load it.

Memory stays near the size of the signal. Frames are a strided view, and
``power_spectrogram`` windows, transforms and squares ``_FRAME_BLOCK`` frames
at a time into its preallocated output. ``read_wav`` returns PCM16 samples as
float32, which holds them exactly, and ``mix_to_mono`` averages channels in
float64, so no float64 copy of all channels is made. Neither changes a bit
of the features.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .types import FeatureMatrix

# Frames per FFT block in power_spectrogram: at the 25 ms mel window a block's
# windowed frames take 3.3 MB and its complex spectrum 4.2 MB.
_FRAME_BLOCK = 1024


@dataclass
class StftConfig:
    sample_rate: float = 16000.0
    window_seconds: float = 0.020
    stride_seconds: float = 0.010
    n_fft: int = 320

    @property
    def window_samples(self) -> int:
        return int(round(self.window_seconds * self.sample_rate))

    @property
    def stride_samples(self) -> int:
        return int(round(self.stride_seconds * self.sample_rate))

    def __post_init__(self) -> None:
        if self.stride_samples <= 0:
            raise ValueError("stride must be positive")
        if self.window_samples < 1:
            raise ValueError("window must span at least one sample")
        if self.n_fft < self.window_samples:
            raise ValueError(f"n_fft={self.n_fft} smaller than window of {self.window_samples} samples")


@dataclass
class MelConfig:
    sample_rate: float = 16000.0
    window_seconds: float = 0.025
    stride_seconds: float = 0.010
    n_mels: int = 80
    f_min: float = 0.0
    f_max: float | None = None  # defaults to Nyquist
    mel_variant: str = "slaney"

    def __post_init__(self) -> None:
        if self.f_max is None:
            self.f_max = self.sample_rate / 2.0
        if not (0 <= self.f_min < self.f_max <= self.sample_rate / 2.0):
            raise ValueError(f"need 0 <= f_min < f_max <= nyquist, got [{self.f_min}, {self.f_max}]")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if self.mel_variant not in ("htk", "slaney"):
            raise ValueError(f"unknown mel variant {self.mel_variant!r}")


def frame_count(n_samples: int, window: int, stride: int) -> int:
    return (n_samples - window) // stride + 1


def _frame(signal: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Read-only frames x window view of the signal; no samples are copied."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError("expected a mono signal")
    if not np.all(np.isfinite(signal)):
        raise ValueError("signal contains non-finite samples")
    if len(signal) < window:
        raise ValueError(f"signal of {len(signal)} samples shorter than one {window}-sample window")
    return np.lib.stride_tricks.sliding_window_view(signal, window)[::stride]


def periodic_hann(n: int) -> np.ndarray:
    """Periodic (FFT) Hann window of n samples: the first n of a symmetric n+1 window."""
    if n <= 1:
        return np.ones(n)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]


def power_spectrogram(signal: np.ndarray, cfg: StftConfig | None = None) -> FeatureMatrix:
    """Squared-magnitude STFT: frames x (n_fft/2 + 1) non-negative powers.

    Hann-windowed frames are zero-padded to n_fft before the FFT.
    """
    cfg = cfg or StftConfig()
    frames = _frame(signal, cfg.window_samples, cfg.stride_samples)
    win = periodic_hann(cfg.window_samples)
    spec = np.empty((frames.shape[0], cfg.n_fft // 2 + 1))
    for start in range(0, frames.shape[0], _FRAME_BLOCK):
        rows = spec[start : start + _FRAME_BLOCK]
        np.abs(np.fft.rfft(frames[start : start + _FRAME_BLOCK] * win, n=cfg.n_fft, axis=1), out=rows)
        np.square(rows, out=rows)
    return FeatureMatrix(spec, sample_rate=1.0 / cfg.stride_seconds, name="spectrogram")


def hz_to_mel(f: np.ndarray | float, variant: str = "slaney") -> np.ndarray | float:
    f = np.asarray(f, dtype=np.float64)
    if variant == "htk":
        return 2595.0 * np.log10(1.0 + f / 700.0)
    # slaney: linear below 1 kHz, logarithmic above
    f_sp = 200.0 / 3.0
    min_log_hz = 1000.0
    min_log_mel = min_log_hz / f_sp
    logstep = np.log(6.4) / 27.0
    mel = np.where(f < min_log_hz, f / f_sp, min_log_mel + np.log(np.maximum(f, min_log_hz) / min_log_hz) / logstep)
    return mel if mel.ndim else float(mel)


def mel_to_hz(m: np.ndarray | float, variant: str = "slaney") -> np.ndarray | float:
    m = np.asarray(m, dtype=np.float64)
    if variant == "htk":
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    f_sp = 200.0 / 3.0
    min_log_hz = 1000.0
    min_log_mel = min_log_hz / f_sp
    logstep = np.log(6.4) / 27.0
    hz = np.where(m < min_log_mel, m * f_sp, min_log_hz * np.exp(logstep * (m - min_log_mel)))
    return hz if hz.ndim else float(hz)


def mel_filter_matrix(n_fft: int, cfg: MelConfig) -> np.ndarray:
    """Triangular filters, shape (n_mels, n_fft//2 + 1).

    Centers are equally spaced on the chosen mel scale; each triangle rises
    from the previous center to its own and falls to the next.
    """
    n_bins = n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * cfg.sample_rate / n_fft
    mel_pts = np.linspace(
        hz_to_mel(cfg.f_min, cfg.mel_variant),
        hz_to_mel(cfg.f_max, cfg.mel_variant),
        cfg.n_mels + 2,
    )
    hz_pts = np.asarray(mel_to_hz(mel_pts, cfg.mel_variant))
    fb = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (fft_freqs - lo) / max(ctr - lo, 1e-12)
        down = (hi - fft_freqs) / max(hi - ctr, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def mel_filterbank(signal: np.ndarray, cfg: MelConfig | None = None) -> FeatureMatrix:
    """Mel-filterbank energies: frames x n_mels, triangular-weighted powers."""
    cfg = cfg or MelConfig()
    window = int(round(cfg.window_seconds * cfg.sample_rate))
    n_fft = 1 << max(window - 1, 1).bit_length()  # next power of two >= window
    stft_cfg = StftConfig(cfg.sample_rate, cfg.window_seconds, cfg.stride_seconds, n_fft)
    spec = power_spectrogram(signal, stft_cfg)
    fb = mel_filter_matrix(n_fft, cfg)
    out = spec.data @ fb.T
    return FeatureMatrix(out, sample_rate=1.0 / cfg.stride_seconds, name=f"mel_{cfg.mel_variant}")


def mix_to_mono(signal: np.ndarray) -> np.ndarray:
    """Float64 mono signal: a 2-D samples x channels signal is averaged over channels.

    The average accumulates in float64, so float32 channels give the same bits
    as averaging a float64 copy of them, without making that copy.
    """
    sig = np.asarray(signal)
    if sig.ndim == 2:
        return sig.mean(axis=1, dtype=np.float64)
    if sig.ndim == 1:
        return sig.astype(np.float64, copy=False)
    raise ValueError(f"expected 1-D or 2-D signal, got ndim={sig.ndim}")


def resample_to_mono_16k(signal: np.ndarray, rate: float) -> np.ndarray:
    """Average channels and polyphase-resample down to 16 kHz.

    Output length is ceil(len * 16000 / rate). Upsampling is refused.
    """
    target = 16000
    if rate < target:
        raise ValueError(f"upsampling from {rate} Hz is not supported")
    sig = mix_to_mono(signal)
    if rate == target:
        return sig
    from scipy.signal import resample_poly

    rate_i = int(round(rate))
    g = np.gcd(target, rate_i)
    return resample_poly(sig, target // g, rate_i // g)


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a PCM16, PCM32, float32 or float64 WAV; returns (float samples, rate).

    Integer samples are scaled to [-1, 1). PCM16 and float32 samples come back
    as float32, which holds them exactly; PCM32 and float64 as float64.
    """
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        data = data.astype(np.float32)
        data /= 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64)
        data /= 2147483648.0
    elif data.dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported WAV sample format {data.dtype}")
    return data, int(rate)
