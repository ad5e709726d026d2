"""Audio front-end: power spectrogram and mel-filterbank features.

Frame layout is the same for both feature types: frame t covers samples
[t*stride, t*stride + window), and the frame count is
floor((len - window) / stride) + 1.

scipy is imported only inside ``read_wav``, for ``scipy.io.wavfile``'s WAV
parsing: importing this module, resampling and computing features do not
load it, and nothing here imports ``scipy.signal``.

``read_wav`` sums the channels straight from the file's integer or float
samples into the float64 mono signal, ``_MIX_BLOCK`` frames at a time, then
divides by channels x full scale. Integer sums are exact in float64, and
float channels are added in the order numpy's mean adds them, so the mono
signal equals the mean of the scaled channels bit for bit.

``resample_to_mono_16k`` reproduces ``scipy.signal.resample_poly``'s default
(a Kaiser-windowed sinc, beta 5, cut off at the lower rate's Nyquist
frequency with 10 zero crossings per side; zero padding at both ends) as a
polyphase filter: each output phase is one matrix-vector product over a
strided view of the input, so the work is n_out x ceil(len(filter) / up)
multiply-adds. Its output differs from scipy's only in rounding, at the
1e-16 level relative to the signal's peak: ``np.kaiser``'s Bessel function
and the BLAS dot products round differently from scipy's ``i0`` and
``upfirdn`` loop.

Memory stays near the size of the signal. Frames are a strided view, and
``power_spectrogram`` windows, transforms and squares ``_FRAME_BLOCK`` frames
at a time into its preallocated output; the resampler's temporaries are
``_RESAMPLE_BLOCK`` outputs, and the two ends of the signal are read through
small zero-padded copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .types import FeatureMatrix

# Frames per FFT block in power_spectrogram: at the 25 ms mel window a block's
# windowed frames take 3.3 MB and its complex spectrum 4.2 MB.
_FRAME_BLOCK = 1024
# Frames per block when mixing channels: 1 MB of float64 mono.
_MIX_BLOCK = 1 << 17
# Outputs per block in _resample_poly: 1 MB of float64 output, whose windows
# span about 3 MB of 44.1 kHz input.
_RESAMPLE_BLOCK = 1 << 17


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


def mix_to_mono(signal: np.ndarray, full_scale: float = 1.0) -> np.ndarray:
    """Float64 mono signal: the channel average divided by ``full_scale``.

    A 2-D samples x channels signal is summed ``_MIX_BLOCK`` frames at a time
    straight into the float64 output, which is then divided by channels x
    ``full_scale``; the only full-length array made is the output. With
    ``full_scale`` 1 the bits equal ``signal.mean(axis=1, dtype=float64)``.
    Integer samples sum exactly in float64, so for them one division gives
    the mean of the channels scaled by ``full_scale`` bit for bit.
    """
    sig = np.asarray(signal)
    if sig.ndim == 1:
        if full_scale == 1.0:
            return sig.astype(np.float64, copy=False)
        return np.divide(sig, full_scale, dtype=np.float64)
    if sig.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D signal, got ndim={sig.ndim}")
    n_frames, n_channels = sig.shape
    mono = np.empty(n_frames)
    for start in range(0, n_frames, _MIX_BLOCK):
        frames = sig[start : start + _MIX_BLOCK]
        block = mono[start : start + _MIX_BLOCK]
        if n_channels >= 8:
            np.sum(frames, axis=1, dtype=np.float64, out=block)
        else:
            # numpy's sum adds fewer than 8 terms left to right from +0.0 (so
            # all -0.0 channels give +0.0); one column at a time is 5x faster
            block.fill(0.0)
            for channel in frames.T:
                block += channel
        block /= n_channels * full_scale
    return mono


def _kaiser_lowpass(up: int, down: int) -> tuple[np.ndarray, int]:
    """resample_poly's default filter and its half length.

    ``firwin(2*half_len + 1, 1/max(up, down), window=("kaiser", 5.0)) * up``
    with half_len = 10 * max(up, down), built with the same operations from
    ``np.sinc`` and ``np.kaiser``.
    """
    max_rate = max(up, down)
    half_len = 10 * max_rate
    n_taps = 2 * half_len + 1
    cutoff = 1.0 / max_rate
    m = np.arange(n_taps, dtype=np.float64) - half_len
    h = cutoff * np.sinc(cutoff * m)
    h *= np.kaiser(n_taps, 5.0)
    h /= np.sum(h)  # unit gain at DC
    h *= up
    return h, half_len


def _polyphase_periods(
    out: np.ndarray, buf: np.ndarray, offset: int, periods: range,
    phases: np.ndarray, starts: list[int], down: int,
) -> None:
    """Fill ``out`` for output periods ``periods`` from ``buf[i - offset] = x[i]``.

    Period r holds outputs r*up .. r*up + up - 1; its output k reads the
    window of ``taps`` input samples from ``starts[k] + r*down``. Each output
    phase k is one matrix-vector product over a strided view of those windows
    for up to ``_RESAMPLE_BLOCK / up`` periods at a time.
    """
    if not periods:
        return
    up, taps = phases.shape
    windows = np.lib.stride_tricks.sliding_window_view(buf, taps)
    rows = max(1, _RESAMPLE_BLOCK // up)
    block = np.empty((up, min(rows, len(periods))))
    for first in range(periods.start, periods.stop, rows):
        n_rows = min(rows, periods.stop - first)
        base = first * down - offset
        span = (n_rows - 1) * down + 1
        for k, start in enumerate(starts):
            np.matmul(windows[base + start : base + start + span : down], phases[k],
                      out=block[k, :n_rows])
        dst = out[first * up : (first + n_rows) * up]
        dst[:] = block[:, :n_rows].T.ravel()[: dst.size]


def _resample_poly(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """``scipy.signal.resample_poly(x, up, down)`` of a 1-D float64 signal.

    Same filter, zero padding at both ends, output alignment and length
    ceil(len * up / down); ``up`` and ``down`` must be coprime. Output o is
    sum_i x[i] h[o*down + half_len - i*up], the sample that scipy keeps
    after padding the filter with n_pre_pad = down - half_len % down zeros
    and dropping n_pre_remove = (half_len + n_pre_pad) / down outputs. Its
    nonzero taps are h[t%up], h[t%up + up], ... with t = o*down + half_len,
    so each output costs ceil(len(h) / up) multiply-adds. The periods whose
    windows cross either end of the signal read a small zero-padded copy of
    that end; no padded copy of the whole signal is made.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    h, half_len = _kaiser_lowpass(up, down)
    taps = -(-h.size // up)
    n_out = -(-x.size * up // down)
    t = np.arange(up) * down + half_len
    starts = t // up - (taps - 1)
    padded = np.zeros(up * taps)
    padded[: h.size] = h
    # phases[k, j] multiplies window sample j of output k of every period
    phases = padded[(t % up)[:, None] + up * np.arange(taps - 1, -1, -1)]
    out = np.empty(n_out)
    n_periods = -(-n_out // up)
    # interior periods: every window inside the signal
    lo = min(n_periods, max(0, -(int(starts[0]) // down)))
    hi = max(lo, min(n_periods, (x.size - int(starts[-1]) - taps) // down + 1))
    starts_list = starts.tolist()
    _polyphase_periods(out, x, 0, range(lo, hi), phases, starts_list, down)
    for first, stop in ((0, lo), (hi, n_periods)):
        if first == stop:
            continue
        a = first * down + starts_list[0]
        b = (stop - 1) * down + starts_list[-1] + taps
        edge = np.zeros(b - a)
        i0, i1 = max(a, 0), min(b, x.size)
        if i0 < i1:
            edge[i0 - a : i1 - a] = x[i0:i1]
        _polyphase_periods(out, edge, a, range(first, stop), phases, starts_list, down)
    return out


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
    rate_i = int(round(rate))
    g = math.gcd(target, rate_i)
    return _resample_poly(sig, target // g, rate_i // g)


class WavError(ValueError):
    """A WAV file that cannot be read: not a WAV, truncated or an unsupported format."""


# Full-scale value per sample format of scipy.io.wavfile (dtype without byte order).
_FULL_SCALE = {"i2": 32768.0, "i4": 2147483648.0, "f4": 1.0, "f8": 1.0}


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a PCM16, PCM32, float32 or float64 WAV; returns (float64 mono, rate).

    Integer samples are scaled to [-1, 1). The channels are mixed by
    ``mix_to_mono`` straight from the file's samples, so no float copy of
    the channels is made. A file that is not a WAV, ends before its header
    says, or holds another sample format raises ``WavError`` naming it.
    """
    import struct
    import warnings

    from scipy.io import wavfile

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except struct.error as exc:  # a header field cut off by the end of the file
        raise WavError(f"cannot read WAV file {path}: truncated header ({exc})") from None
    except (OSError, ValueError, wavfile.WavFileWarning) as exc:
        raise WavError(f"cannot read WAV file {path}: {exc}") from None
    full_scale = _FULL_SCALE.get(data.dtype.str[1:])
    if full_scale is None:
        raise WavError(f"unsupported WAV sample format {data.dtype} in {path} "
                       "(need PCM16, PCM32, float32 or float64)")
    return mix_to_mono(data, full_scale), int(rate)
