"""Hemodynamic alignment: [0,1] normalization, double-gamma HRF convolution,
and downsampling from activation rate (50 Hz) to acquisition rate (0.5 Hz).

Activations are a plain time x feature numpy array whose sampling rate is
passed once, to ``hrf_align``, which builds the kernel and the resampling
spec at that rate; the result is the scans x feature array.

The gamma densities of the HRF repeat the operations of
``scipy.stats.gamma.pdf`` with numpy and ``math``, so the kernel equals
scipy's bit for bit and importing this module does not load scipy.

Memory is bounded by the input, not by the FFT length: the convolution
transforms ``_COLUMN_BLOCK`` columns at a time and keeps only their scan
rows. ``hrf_align`` normalises each block just before its transform, from
per-column minima and spans found in one pass, so no normalised copy of the
whole input is made. Every column's FFT is independent, so the blocks give
the same bits as one transform of the whole normalised matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Double-gamma constants: main lobe peaking at (PEAK_SHAPE-1)*DISPERSION = 5 s,
# undershoot peaking at 15 s with 1/6 amplitude, 32 s support.
PEAK_SHAPE = 6.0
UNDERSHOOT_SHAPE = 16.0
DISPERSION = 1.0
UNDERSHOOT_RATIO = 1.0 / 6.0
DEFAULT_DURATION = 32.0
#: Lowest activation rate the kernel is sampled at, in Hz.
MIN_OVERSAMPLE_HZ = 10.0

# Columns per FFT block in convolve_downsample. At 30000 input rows a block's
# spectrum and convolved signal take about 2 MB each. Small blocks also run
# faster: 30000 x 768 took 1.9 s at 64 columns and 1.2 s at 8 (2-vCPU x86-64).
_COLUMN_BLOCK = 8


@dataclass
class HrfKernel:
    samples: np.ndarray
    oversample_hz: float
    duration_seconds: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("kernel contains non-finite values")


@dataclass
class ResampleSpec:
    input_rate: float = 50.0
    output_rate: float = 0.5
    n_output: int = 0

    def __post_init__(self) -> None:
        if not (self.input_rate > self.output_rate > 0):
            raise ValueError(f"need input_rate > output_rate > 0, got {self.input_rate}, {self.output_rate}")


def _column_range(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column minimum and span (maximum minus minimum)."""
    lo = data.min(axis=0)
    return lo, data.max(axis=0) - lo


def _normalized(data: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """New array of (data - lo) / span per column; columns with no positive span become zeros."""
    out = np.subtract(data, lo)
    with np.errstate(invalid="ignore"):  # constant columns give 0/0 here
        out /= span
    out[:, ~(span > 0)] = 0.0
    return out


def _gamma_pdf(t: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """Gamma density at t >= 0: x**(shape-1) exp(-x) / (Gamma(shape) scale), x = t/scale.

    The operations are those of ``scipy.stats.gamma.pdf``, so the result is
    bit-identical to it: libm ``log`` per sample (as ``scipy.special.xlogy``),
    ``np.exp``, and log Gamma(shape) as the sum of log k for k = 2 .. shape-1.
    That sum equals ``scipy.special.gammaln`` at the shapes 6 and 16 used here;
    ``math.lgamma`` is 1 ULP off at both, and ``np.log`` differs from libm on
    some samples.
    """
    if shape != int(shape) or shape < 1:
        raise ValueError(f"gamma shape must be a positive integer, got {shape}")
    x = t / scale
    log_gamma = 0.0
    for k in range(2, int(shape)):  # not sum(): it compensates rounding on Python >= 3.12
        log_gamma += math.log(k)
    log_x = np.array([math.log(v) if v > 0 else -math.inf for v in x.tolist()])
    return np.exp((shape - 1.0) * log_x - x - log_gamma) / scale


def glover_hrf(oversample_hz: float = 50.0, duration_seconds: float = DEFAULT_DURATION) -> HrfKernel:
    """Canonical double-gamma impulse response, peak-normalized to 1.

    Positive lobe peaks near 5 s, followed by a negative undershoot.
    """
    if oversample_hz < MIN_OVERSAMPLE_HZ:
        raise ValueError(f"oversample_hz must be >= {MIN_OVERSAMPLE_HZ:g}")
    if duration_seconds < 20:
        raise ValueError("duration_seconds must be >= 20")
    n = int(round(duration_seconds * oversample_hz))
    t = np.arange(n) / oversample_hz
    main = _gamma_pdf(t, PEAK_SHAPE / DISPERSION, DISPERSION)
    under = _gamma_pdf(t, UNDERSHOOT_SHAPE / DISPERSION, DISPERSION)
    kernel = main - UNDERSHOOT_RATIO * under
    kernel /= kernel.max()
    return HrfKernel(kernel, oversample_hz, duration_seconds)


def convolve_downsample(data: np.ndarray, kernel: HrfKernel, spec: ResampleSpec) -> np.ndarray:
    """Causal convolution with the HRF, then nearest-sample pick at scan times.

    Scan k reads the convolved signal at t_k = k / output_rate. History before
    onset is zero-padded, so early scans see only the kernel's rising edge.
    """
    return _convolve_downsample(data, kernel, spec, normalize=False)


def scan_index(n_rows: int, kernel: HrfKernel, spec: ResampleSpec) -> np.ndarray:
    """Sample of the convolved signal that each output scan reads.

    Raises ValueError when the last scan lies beyond the convolved signal of
    ``n_rows`` input samples.
    """
    conv_len = n_rows + len(kernel.samples) - 1
    scan_idx = np.rint(np.arange(spec.n_output) / spec.output_rate * spec.input_rate).astype(int)
    if spec.n_output > 0 and scan_idx[-1] >= conv_len:
        raise ValueError(
            f"scan {spec.n_output - 1} at sample {scan_idx[-1]} beyond convolved support {conv_len}"
        )
    return scan_idx


def _convolve_downsample(
    data: np.ndarray, kernel: HrfKernel, spec: ResampleSpec, normalize: bool
) -> np.ndarray:
    """``convolve_downsample``, of the min-max normalised columns if ``normalize``."""
    data = np.asarray(data, dtype=np.float64)  # copies only another dtype, e.g. float32
    if kernel.oversample_hz != spec.input_rate:
        raise ValueError(
            f"kernel rate {kernel.oversample_hz} != spec input_rate {spec.input_rate}"
        )
    conv_len = data.shape[0] + len(kernel.samples) - 1
    scan_idx = scan_index(data.shape[0], kernel, spec)
    if normalize:
        lo, span = _column_range(data)
    # FFT convolution, causal "full" mode, _COLUMN_BLOCK columns at a time
    n_fft = 1 << (conv_len - 1).bit_length()
    spec_h = np.fft.rfft(kernel.samples, n=n_fft)[:, None]
    out = np.empty((spec.n_output, data.shape[1]))
    for start in range(0, data.shape[1], _COLUMN_BLOCK):
        cols = slice(start, start + _COLUMN_BLOCK)
        block = _normalized(data[:, cols], lo[cols], span[cols]) if normalize else data[:, cols]
        spec_x = np.fft.rfft(block, n=n_fft, axis=0)
        spec_x *= spec_h
        out[:, cols] = np.fft.irfft(spec_x, n=n_fft, axis=0)[scan_idx]
    return out


def hrf_align(
    data: np.ndarray,
    rate: float,
    n_scans: int,
    tr_seconds: float = 2.0,
    normalize: bool = True,
) -> np.ndarray:
    """Full alignment pipeline: [0,1] normalize, convolve, downsample to TR.

    ``data`` is time x feature at ``rate`` Hz; the result is n_scans x feature.
    """
    kernel = glover_hrf(oversample_hz=rate)
    spec = ResampleSpec(rate, 1.0 / tr_seconds, n_scans)
    return _convolve_downsample(data, kernel, spec, normalize)
