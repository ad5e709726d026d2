"""Audio front-end: power spectrogram and mel-filterbank features.

Frame layout is the same for both feature types: frame t covers samples
[t*stride, t*stride + window), and the frame count is
floor((len - window) / stride) + 1.

Nothing here imports scipy. ``read_wav`` is a small RIFF/RIFX/RF64 chunk
parser: it reads the data chunk ``_MIX_BLOCK`` frames at a time into one
reused buffer and sums each block's channels straight from the file's
integer or float samples into the float64 mono signal, then divides by
channels x full scale. Integer sums are exact in float64, and float channels
are added in the order numpy's mean adds them, so the mono signal equals the
mean of the channels as ``scipy.io.wavfile`` reads and scales them, bit for
bit.

``resample_to_mono_16k`` reproduces ``scipy.signal.resample_poly``'s default
(a Kaiser-windowed sinc, beta 5, cut off at the lower rate's Nyquist
frequency with 10 zero crossings per side; zero padding at both ends) as a
polyphase filter: each output phase is one matrix-vector product over a
strided view of the input, so the work is n_out x ceil(len(filter) / up)
multiply-adds. Its output differs from scipy's only in rounding, at the
1e-16 level relative to the signal's peak: ``np.kaiser``'s Bessel function
and the BLAS dot products round differently from scipy's ``i0`` and
``upfirdn`` loop.

Memory stays near the size of the signal. Frames are a strided view;
``_stft_power`` windows, transforms and squares ``_FRAME_BLOCK`` frames at a
time, into the preallocated spectrogram or, for ``mel_filterbank``, into a
block that is projected onto the filters at once, so no full spectrogram is
made for mel features. The resampler's temporaries are
``_RESAMPLE_BLOCK`` outputs, and the two ends of the signal are read through
small zero-padded copies.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Frames per FFT block in _stft_power: at the 25 ms mel window a block's
# windowed frames take 3.3 MB and its complex spectrum 4.2 MB.
_FRAME_BLOCK = 1024
# Frames per block when mixing channels: 1 MB of float64 mono.
_MIX_BLOCK = 1 << 17
# Outputs per block in _resample_poly: 1 MB of float64 output, whose windows
# span about 3 MB of 44.1 kHz input.
_RESAMPLE_BLOCK = 1 << 17
# Taps per block as _kaiser_lowpass builds its filter: 128 KB of float64.
_FILTER_BLOCK = 1 << 14
# The most taps _kaiser_lowpass builds (8 MB of float64). A rate of 16000
# down / up Hz in lowest terms takes 20 max(up, down) + 1, so every rate up
# to 52,428 Hz passes, and every multiple of 100 Hz up to 5.2 MHz, which
# covers the 44.1 and 48 kHz families.
_MAX_FILTER_TAPS = 1 << 20


#: The front end's sample rate in Hz: audio is resampled to it before framing.
SAMPLE_RATE = 16000
#: Spectrogram frames in samples: a 20 ms Hann window every 10 ms, one FFT per window.
STFT_WINDOW, STFT_STRIDE, STFT_N_FFT = 320, 160, 320
#: Mel frames in samples: a 25 ms Hann window every 10 ms, zero-padded to the next
#: power of two; the filters span 0 Hz up to Nyquist.
MEL_WINDOW, MEL_STRIDE, MEL_N_FFT = 400, 160, 512
#: Mel scales ``mel_filterbank`` takes, the default first.
MEL_VARIANTS = ("slaney", "htk")
# The slaney scale: linear below 1 kHz at 200/3 Hz per mel, logarithmic above.
_F_SP, _MIN_LOG_HZ = 200.0 / 3.0, 1000.0
_MIN_LOG_MEL, _LOGSTEP = _MIN_LOG_HZ / _F_SP, np.log(6.4) / 27.0


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


def power_spectrogram(signal: np.ndarray) -> np.ndarray:
    """Squared-magnitude STFT of a 16 kHz signal: frames x 161 non-negative powers.

    Frames are ``STFT_WINDOW`` samples every ``STFT_STRIDE``, Hann-windowed.
    """
    return _stft_power(signal, STFT_WINDOW, STFT_STRIDE, STFT_N_FFT)


def _stft_power(signal: np.ndarray, window: int, stride: int, n_fft: int,
                fb: np.ndarray | None = None) -> np.ndarray:
    """The power spectrogram, or with ``fb`` its projection ``power @ fb.T``.

    Frames are windowed, transformed and squared ``_FRAME_BLOCK`` at a time.
    With ``fb`` the powers go to a reused buffer that is projected every
    ``_FRAME_BLOCK`` frames, except that the last projection also takes the
    remainder. So every projection has at least ``_FRAME_BLOCK`` rows unless
    the signal has fewer frames: OpenBLAS rounds GEMMs of a few rows
    differently, and with full blocks the blocked projection equals one
    product of the whole spectrogram bit for bit.
    """
    frames = _frame(signal, window, stride)
    win = periodic_hann(window)
    n_frames, n_bins = frames.shape[0], n_fft // 2 + 1
    out = np.empty((n_frames, n_bins if fb is None else fb.shape[0]))
    last = max(0, n_frames // _FRAME_BLOCK - 1) * _FRAME_BLOCK  # first row of the last projection
    power = out if fb is None else np.empty((n_frames - last, n_bins))
    for start in range(0, n_frames, _FRAME_BLOCK):
        stop = min(start + _FRAME_BLOCK, n_frames)
        base = 0 if fb is None else min(start, last)  # row of out at power's first row
        rows = power[start - base : stop - base]
        np.abs(np.fft.rfft(frames[start:stop] * win, n=n_fft, axis=1), out=rows)
        np.square(rows, out=rows)
        if fb is not None and (stop <= last or stop == n_frames):
            np.matmul(power[: stop - base], fb.T, out=out[base:stop])
    return out


def hz_to_mel(f: np.ndarray | float, variant: str = "slaney") -> np.ndarray | float:
    f = np.asarray(f, dtype=np.float64)
    if variant == "htk":
        return 2595.0 * np.log10(1.0 + f / 700.0)
    mel = np.where(f < _MIN_LOG_HZ, f / _F_SP,
                   _MIN_LOG_MEL + np.log(np.maximum(f, _MIN_LOG_HZ) / _MIN_LOG_HZ) / _LOGSTEP)
    return mel if mel.ndim else float(mel)


def mel_to_hz(m: np.ndarray | float, variant: str = "slaney") -> np.ndarray | float:
    m = np.asarray(m, dtype=np.float64)
    if variant == "htk":
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    hz = np.where(m < _MIN_LOG_MEL, m * _F_SP, _MIN_LOG_HZ * np.exp(_LOGSTEP * (m - _MIN_LOG_MEL)))
    return hz if hz.ndim else float(hz)


def mel_filter_matrix(n_fft: int, n_mels: int, variant: str) -> np.ndarray:
    """Triangular filters at 16 kHz, shape (n_mels, n_fft//2 + 1).

    Centers are equally spaced on the chosen mel scale from 0 Hz to Nyquist;
    each triangle rises from the previous center to its own and falls to the next.
    """
    if n_mels < 1:
        raise ValueError("n_mels must be >= 1")
    if variant not in MEL_VARIANTS:
        raise ValueError(f"unknown mel variant {variant!r}")
    n_bins = n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * SAMPLE_RATE / n_fft
    mel_pts = np.linspace(hz_to_mel(0.0, variant), hz_to_mel(SAMPLE_RATE / 2, variant), n_mels + 2)
    hz_pts = np.asarray(mel_to_hz(mel_pts, variant))
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (fft_freqs - lo) / max(ctr - lo, 1e-12)
        down = (hi - fft_freqs) / max(hi - ctr, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def mel_filterbank(signal: np.ndarray, n_mels: int = 80, variant: str = "slaney") -> np.ndarray:
    """Mel-filterbank energies of a 16 kHz signal: frames x n_mels, triangular-weighted powers."""
    return _stft_power(signal, MEL_WINDOW, MEL_STRIDE, MEL_N_FFT,
                       mel_filter_matrix(MEL_N_FFT, n_mels, variant))


def _mix_block(frames: np.ndarray, out: np.ndarray, full_scale: float) -> None:
    """Write the channel average of ``frames`` divided by ``full_scale`` into ``out``.

    1-D frames are one channel. Channels are summed, integers in int64 and
    floats in float64, and the sum is divided once by channels x
    ``full_scale``. An integer sum is exact below 2**53 and has no signed
    zero, so it gives the bits of the float64 sum.
    """
    if frames.ndim == 1:
        np.divide(frames, full_scale, out=out, dtype=np.float64)
        return
    n_channels = frames.shape[1]
    if frames.dtype.kind == "i":
        total = frames[:, 0].astype(np.int64)
        for channel in frames.T[1:]:
            total += channel
        np.divide(total, n_channels * full_scale, out=out)
        return
    if n_channels >= 8:
        np.sum(frames, axis=1, dtype=np.float64, out=out)
    else:
        # numpy's sum adds fewer than 8 terms left to right from +0.0 (so
        # all -0.0 channels give +0.0); one column at a time is 5x faster
        out.fill(0.0)
        for channel in frames.T:
            out += channel
    out /= n_channels * full_scale


def _kaiser_lowpass(up: int, down: int) -> tuple[np.ndarray, int]:
    """resample_poly's default filter and its half length.

    ``firwin(2*half_len + 1, 1/max(up, down), window=("kaiser", 5.0)) * up``
    with half_len = 10 * max(up, down), built with the elementwise operations
    of ``cutoff * np.sinc(cutoff * m) * np.kaiser(n_taps, 5.0)`` in blocks of
    ``_FILTER_BLOCK`` taps, so no full-length temporary is made, then scaled
    by one ``np.sum`` over the whole filter.
    """
    max_rate = max(up, down)
    half_len = 10 * max_rate
    n_taps = 2 * half_len + 1
    cutoff = 1.0 / max_rate
    alpha = (float(n_taps) - 1) / 2.0  # np.kaiser's
    i0_beta = np.i0(5.0)
    h = np.empty(n_taps)
    for a in range(0, n_taps, _FILTER_BLOCK):
        n = np.arange(a, min(a + _FILTER_BLOCK, n_taps), dtype=np.float64)
        x = np.pi * (cutoff * (n - half_len))
        x[x == 0] = np.finfo(np.float64).eps  # np.sinc's
        part = h[a:a + n.size]
        np.divide(np.sin(x), x, out=part)
        part *= cutoff
        part *= np.i0(5.0 * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)) / i0_beta
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
    """Polyphase-resample a 1-D mono signal, such as ``read_wav`` returns, down to 16 kHz.

    Output length is ceil(len * 16000 / rate). Upsampling is refused, and so
    are a signal that is not 1-D and a rate whose filter would have more than
    ``_MAX_FILTER_TAPS`` taps, such as a corrupt header's 4,278,206,080 Hz
    (134M taps).
    """
    if rate < SAMPLE_RATE:
        raise ValueError(f"upsampling from {rate} Hz is not supported")
    sig = np.asarray(signal).astype(np.float64, copy=False)
    if sig.ndim != 1:
        raise ValueError(f"expected a 1-D mono signal, got shape {sig.shape}")
    if rate == SAMPLE_RATE:
        return sig
    rate_i = int(round(rate))
    g = math.gcd(SAMPLE_RATE, rate_i)
    up, down = SAMPLE_RATE // g, rate_i // g
    taps = 20 * max(up, down) + 1  # _kaiser_lowpass's length
    if taps > _MAX_FILTER_TAPS:
        raise ValueError(f"sample rate {rate} Hz needs a resampling filter of {taps:,} taps; "
                         f"at most {_MAX_FILTER_TAPS:,} are built")
    return _resample_poly(sig, up, down)


class WavError(ValueError):
    """A WAV file that cannot be read: not a WAV, truncated or an unsupported format."""


_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# The extensible format's sub-format GUID after its leading format tag, per byte order.
_GUID_TAIL = {"<": bytes.fromhex("0000 1000 8000 00aa 0038 9b71"),
              ">": bytes.fromhex("0000 0010 8000 00aa 0038 9b71")}
# Full scale per sample code (kind and bytes per sample), as scipy.io.wavfile
# returns them: 24-bit PCM fills the top three bytes of an int32.
_FULL_SCALE = {"i2": 32768.0, "i3": 2147483648.0, "i4": 2147483648.0, "f4": 1.0, "f8": 1.0}


@dataclass
class _WavLayout:
    rate: int
    channels: int
    code: str  # sample kind and bytes per sample, e.g. "i2"
    order: str  # "<" for RIFF and RF64, ">" for RIFX
    n_frames: int


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a PCM16, PCM24, PCM32, float32 or float64 WAV; returns (float64 mono, rate).

    RIFF, RIFX (big-endian) and RF64 files are read, with the plain or the
    extensible format chunk. Integer samples are scaled to [-1, 1), as
    ``scipy.io.wavfile`` reads them. The data chunk is read ``_MIX_BLOCK``
    frames at a time into one reused buffer and each block is mixed straight
    into the mono output, so no copy of the samples is made; a pipe, which
    cannot seek, is read whole first. A file that is not a WAV, ends before
    its header says, or holds another sample format raises ``WavError``
    naming it.
    """
    try:
        with open(path, "rb") as raw:
            # a pipe can neither skip chunks nor report its size: read it whole first
            fh = raw if raw.seekable() else io.BytesIO(raw.read())
            wav = _read_wav_header(fh, path)
            mono = np.empty(wav.n_frames)
            frame_bytes = wav.channels * int(wav.code[1:])
            raw = np.empty(min(wav.n_frames, _MIX_BLOCK) * frame_bytes, dtype=np.uint8)
            if wav.code == "i3":  # widened to int32 with a zero low byte
                wide = np.zeros((raw.size // 3, 4), dtype=np.uint8)
                top = slice(1, 4) if wav.order == "<" else slice(0, 3)
            for start in range(0, wav.n_frames, _MIX_BLOCK):
                count = min(_MIX_BLOCK, wav.n_frames - start)
                block = raw[: count * frame_bytes]
                if fh.readinto(block) != block.size:
                    raise WavError(f"cannot read WAV file {path}: Reached EOF prematurely")
                if wav.code == "i3":
                    wide[: count * wav.channels, top] = block.reshape(-1, 3)
                    samples = wide[: count * wav.channels].view(wav.order + "i4")
                else:
                    samples = block.view(wav.order + wav.code)
                shape = (count, wav.channels) if wav.channels > 1 else (count,)
                _mix_block(samples.reshape(shape), mono[start : start + count],
                           _FULL_SCALE[wav.code])
    except OSError as exc:
        raise WavError(f"cannot read WAV file {path}: {exc}") from None
    return mono, wav.rate


def _read_header_bytes(fh, n: int, path: str | Path) -> bytes:
    data = fh.read(n)
    if len(data) < n:
        raise WavError(f"cannot read WAV file {path}: truncated header at byte {fh.tell()}")
    return data


def _read_wav_header(fh, path: str | Path) -> _WavLayout:
    """Parse the chunks up to the data chunk and leave ``fh`` at its first sample.

    Unknown chunks are skipped, odd-sized chunks with their pad byte. The
    data chunk must hold whole frames and fit in the file.
    """
    def fail(message: str) -> WavError:
        return WavError(f"cannot read WAV file {path}: {message}")

    magic = fh.read(4)
    if magic not in (b"RIFF", b"RIFX", b"RF64"):
        raise fail(f"file format {magic!r} not understood; only RIFF, RIFX and RF64 are read")
    order = ">" if magic == b"RIFX" else "<"
    form = _read_header_bytes(fh, 8, path)[4:]
    if form != b"WAVE":
        raise fail(f"not a WAV file: RIFF form type is {form!r}")
    rf64_size = None
    if magic == b"RF64":  # the data size is in the ds64 chunk that must come first
        ds64, size = struct.unpack("<4sI", _read_header_bytes(fh, 8, path))
        if ds64 != b"ds64" or size < 16:
            raise fail("RF64 file without a ds64 chunk")
        rf64_size = struct.unpack("<8xQ", _read_header_bytes(fh, 16, path))[0]
        fh.seek(size - 16 + size % 2, 1)
    fmt = None
    while True:
        head = fh.read(8)
        if not head:
            raise fail("no data chunk before the end of the file")
        if len(head) < 8:
            raise fail(f"truncated header at byte {fh.tell()}")
        chunk, size = struct.unpack(order + "4sI", head)
        if chunk == b"data":
            break
        skip = size + size % 2
        if chunk == b"fmt ":
            fmt = _read_header_bytes(fh, min(size, 40), path)
            if len(fmt) < 16:
                raise fail(f"fmt chunk of {size} bytes, need at least 16")
            skip -= len(fmt)
        fh.seek(skip, 1)
    if fmt is None:
        raise fail("no fmt chunk before the data chunk")
    tag, channels, rate, _, block_align, bits = struct.unpack(order + "HHIIHH", fmt[:16])
    if tag == _WAVE_EXTENSIBLE and len(fmt) >= 18:
        if struct.unpack(order + "H", fmt[16:18])[0] < 22 or len(fmt) < 40:
            raise fail("extensible fmt chunk shorter than its 22-byte extension")
        if fmt[28:40] == _GUID_TAIL[order]:
            tag = struct.unpack(order + "I", fmt[24:28])[0]
    if tag not in (_WAVE_PCM, _WAVE_FLOAT):
        raise fail(f"unsupported WAV format tag {tag:#06x} (need PCM or IEEE float)")
    if channels == 0 or block_align % channels:
        raise fail(f"block align of {block_align} bytes does not split into {channels} channels")
    width = block_align // channels
    code = "u1" if tag == _WAVE_PCM and bits <= 8 else f"{'i' if tag == _WAVE_PCM else 'f'}{width}"
    if code not in _FULL_SCALE:
        name = f"{dict(u='uint', i='int', f='float')[code[0]]}{8 * int(code[1:])}"
        raise WavError(f"unsupported WAV sample format {name} in {path} "
                       "(need PCM16, PCM24, PCM32, float32 or float64)")
    size = size if rf64_size is None else rf64_size
    start = fh.tell()
    avail = max(0, fh.seek(0, io.SEEK_END) - start)
    fh.seek(start)
    n_samples = min(size, avail) // width
    if n_samples % channels:
        raise fail(f"cannot reshape {n_samples} samples into frames of {channels} channels")
    if size > avail:
        raise fail(f"Reached EOF prematurely: the data chunk declares {size} bytes, "
                   f"the file holds {avail}")
    return _WavLayout(rate, channels, code, order, n_samples // channels)
