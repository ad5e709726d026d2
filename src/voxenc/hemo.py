"""Hemodynamic alignment: [0,1] normalization, double-gamma HRF convolution,
and downsampling from activation rate (50 Hz) to acquisition rate (0.5 Hz).

Activations are a plain time x feature numpy array whose sampling rate is
passed once, to ``hrf_align``, which builds the kernel and reads the scan
rows at that rate; the result is the scans x feature array.

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

import numpy as np

# Double-gamma constants at unit dispersion: main lobe peaking at PEAK_SHAPE - 1
# = 5 s, undershoot peaking at 15 s with 1/6 amplitude, 32 s support.
PEAK_SHAPE = 6.0
UNDERSHOOT_SHAPE = 16.0
UNDERSHOOT_RATIO = 1.0 / 6.0
DURATION_SECONDS = 32.0
#: Lowest activation rate the kernel is sampled at, in Hz.
MIN_OVERSAMPLE_HZ = 10.0

# Columns per FFT block in hrf_align. At 30000 input rows a block's
# spectrum and convolved signal take about 2 MB each. Small blocks also run
# faster: 30000 x 768 took 1.9 s at 64 columns and 1.2 s at 8 (2-vCPU x86-64).
_COLUMN_BLOCK = 8


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


def _gamma_pdf(t: np.ndarray, shape: float) -> np.ndarray:
    """Gamma density of unit scale at t >= 0: t**(shape-1) exp(-t) / Gamma(shape).

    The operations are those of ``scipy.stats.gamma.pdf``, so the result is
    bit-identical to it: libm ``log`` per sample (as ``scipy.special.xlogy``),
    ``np.exp``, and log Gamma(shape) as the sum of log k for k = 2 .. shape-1.
    That sum equals ``scipy.special.gammaln`` at the shapes 6 and 16 used here;
    ``math.lgamma`` is 1 ULP off at both, and ``np.log`` differs from libm on
    some samples.
    """
    if shape != int(shape) or shape < 1:
        raise ValueError(f"gamma shape must be a positive integer, got {shape}")
    log_gamma = 0.0
    for k in range(2, int(shape)):  # not sum(): it compensates rounding on Python >= 3.12
        log_gamma += math.log(k)
    log_t = np.array([math.log(v) if v > 0 else -math.inf for v in t.tolist()])
    return np.exp((shape - 1.0) * log_t - t - log_gamma)


def _kernel_length(rate: float) -> int:
    return int(round(DURATION_SECONDS * rate))


def glover_hrf(rate: float) -> np.ndarray:
    """Canonical double-gamma impulse response over 32 s at ``rate`` Hz, peak-normalized to 1.

    Positive lobe peaks near 5 s, followed by a negative undershoot.
    """
    if rate < MIN_OVERSAMPLE_HZ:
        raise ValueError(f"HRF rate must be >= {MIN_OVERSAMPLE_HZ:g} Hz, got {rate:g}")
    t = np.arange(_kernel_length(rate)) / rate
    main = _gamma_pdf(t, PEAK_SHAPE)
    under = _gamma_pdf(t, UNDERSHOOT_SHAPE)
    kernel = main - UNDERSHOOT_RATIO * under
    kernel /= kernel.max()
    return kernel


def scan_index(n_rows: int, rate: float, n_scans: int, tr_seconds: float) -> np.ndarray:
    """Sample nearest k * tr_seconds at ``rate`` Hz that scan k reads, for each of ``n_scans``.

    Raises ValueError when the scan rate is not below ``rate``, or when the
    last scan lies beyond the convolved signal of ``n_rows`` input samples.
    """
    scan_rate = 1.0 / tr_seconds
    if not rate > scan_rate > 0:
        raise ValueError(f"scan rate {scan_rate:g} Hz must be positive and below the input rate {rate:g} Hz")
    conv_len = n_rows + _kernel_length(rate) - 1
    scan_idx = np.rint(np.arange(n_scans) / scan_rate * rate).astype(int)
    if n_scans > 0 and scan_idx[-1] >= conv_len:
        raise ValueError(f"scan {n_scans - 1} at sample {scan_idx[-1]} beyond convolved support {conv_len}")
    return scan_idx


def hrf_align(
    data: np.ndarray,
    rate: float,
    n_scans: int,
    tr_seconds: float = 2.0,
    normalize: bool = True,
) -> np.ndarray:
    """Full alignment pipeline: [0,1] normalize, convolve, downsample to TR.

    ``data`` is time x feature at ``rate`` Hz; the result is n_scans x
    feature, scan k read at ``scan_index``'s sample k. Constant columns
    normalize to zeros. The convolution is causal: history before onset is
    zero-padded, so early scans see only the kernel's rising edge.
    """
    kernel = glover_hrf(rate)
    data = np.asarray(data, dtype=np.float64)  # copies only another dtype, e.g. float32
    scan_idx = scan_index(data.shape[0], rate, n_scans, tr_seconds)
    conv_len = data.shape[0] + kernel.size - 1
    if normalize:
        lo, span = _column_range(data)
    # FFT convolution, causal "full" mode, _COLUMN_BLOCK columns at a time
    n_fft = 1 << (conv_len - 1).bit_length()
    spec_h = np.fft.rfft(kernel, n=n_fft)[:, None]
    out = np.empty((n_scans, data.shape[1]))
    for start in range(0, data.shape[1], _COLUMN_BLOCK):
        cols = slice(start, start + _COLUMN_BLOCK)
        block = _normalized(data[:, cols], lo[cols], span[cols]) if normalize else data[:, cols]
        spec_x = np.fft.rfft(block, n=n_fft, axis=0)
        spec_x *= spec_h
        out[:, cols] = np.fft.irfft(spec_x, n=n_fft, axis=0)[scan_idx]
    return out
