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
rows. Each block is normalised just before its transform, from its own
columns' minima and spans, so no normalised copy of the whole input is made.
Every column's FFT is independent, so the blocks give the same bits as one
transform of the whole normalised matrix, in any order.

The blocks run on threads, this one included: one per CPU the process may
use, at most one per block, and no more than keep the blocks in flight within
``_IN_FLIGHT_SHARE`` of the input's bytes. Each thread reuses one block's
buffers: the block's columns copied into contiguous rows, where min, max and
both transforms run, their spectrum and the convolved signal, about
``8 * _COLUMN_BLOCK * (n_rows + 2 * n_fft)`` bytes. So ``hrf_align`` holds
the input, its output and at most the larger of one block and a third of the
input, whatever the CPU count. An input of one block runs in the calling
thread. numpy's FFT releases the GIL, and each block writes only its own
columns of the output, so the result does not depend on the thread count.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable

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
# faster: 30000 x 768 took 0.83 s at 64 columns and 0.63 s at 8 on one
# thread, 0.39 and 0.34 s on two (2-vCPU x86-64).
_COLUMN_BLOCK = 8
# Share of the input's bytes that the blocks in flight on hrf_align's threads
# may hold together; one block runs whatever its size.
_IN_FLIGHT_SHARE = 1 / 3


def _worker_count(n_blocks: int, block_bytes: int, input_bytes: int) -> int:
    """Threads for ``n_blocks`` blocks of ``block_bytes``: one per usable CPU and block,
    while the blocks in flight fit in ``_IN_FLIGHT_SHARE`` of ``input_bytes``; at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_blocks, int(_IN_FLIGHT_SHARE * input_bytes) // block_bytes))


def _run_tasks(make_task: Callable[[], Callable[[int], None]], items: range, n_workers: int) -> None:
    """Run a task on each item on ``n_workers`` threads, this one included.

    Thread i calls ``make_task()`` once and runs the task it returns on every
    ``n_workers``-th item from item i; one worker starts no thread. After an
    error no thread starts another item, and the first error is raised here
    once every thread has stopped.
    """
    errors: list[BaseException] = []

    def work(i: int) -> None:
        try:
            task = make_task()
            for item in items[i::n_workers]:
                if errors:
                    return
                task(item)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, n_workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _normalize_rows(rows: np.ndarray) -> None:
    """Map each row of ``rows`` onto [0, 1] in place by its minimum and span.

    Rows with no positive span (constant, or holding NaN) become zeros.
    """
    lo = rows.min(axis=1, keepdims=True)
    span = rows.max(axis=1, keepdims=True) - lo
    rows -= lo
    with np.errstate(invalid="ignore"):  # constant rows give 0/0 here
        rows /= span
    rows[~(span[:, 0] > 0)] = 0.0


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
    data = np.asarray(data)  # another dtype, e.g. float32, is cast block by block by np.copyto
    n_rows, n_cols = data.shape
    scan_idx = scan_index(n_rows, rate, n_scans, tr_seconds)
    # FFT convolution, causal "full" mode, _COLUMN_BLOCK columns at a time
    n_fft = 1 << (n_rows + kernel.size - 2).bit_length()
    spec_h = np.fft.rfft(kernel, n=n_fft)
    out = np.empty((n_scans, n_cols))
    width = max(1, min(_COLUMN_BLOCK, n_cols))

    def block_task() -> Callable[[int], None]:
        # One per thread, with buffers reused from block to block; it runs
        # on threads, so it calls only numpy and private helpers.
        rows = np.empty((width, n_rows))  # one contiguous row per column
        spec = np.empty((width, n_fft // 2 + 1), dtype=np.complex128)
        conv = np.empty((width, n_fft))

        def convolve_block(start: int) -> None:
            k = min(width, n_cols - start)
            np.copyto(rows[:k], data[:, start : start + k].T)
            if normalize:
                _normalize_rows(rows[:k])
            np.fft.rfft(rows[:k], n=n_fft, out=spec[:k])
            spec[:k] *= spec_h
            np.fft.irfft(spec[:k], n=n_fft, out=conv[:k])
            out[:, start : start + k] = conv[:k, scan_idx].T

        return convolve_block

    starts = range(0, n_cols, _COLUMN_BLOCK)
    block_bytes = 8 * width * (n_rows + 2 * n_fft + 2)
    _run_tasks(block_task, starts, _worker_count(len(starts), block_bytes, data.nbytes))
    return out
