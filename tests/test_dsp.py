import re
import struct

import numpy as np
import pytest

from voxenc import dsp

from support import read_through_fifo


def _frame_count(n_samples, window, stride):
    return (n_samples - window) // stride + 1


def test_zero_signal_zero_spectrogram():
    out = dsp.power_spectrogram(np.zeros(1000))
    assert np.all(out == 0)


def test_spectrogram_shape_16k_20ms():
    out = dsp.power_spectrogram(np.random.default_rng(0).normal(size=16000))
    assert out.shape[1] == 161
    assert out.shape[0] == _frame_count(16000, 320, 160)


def test_sine_peak_bin_matches_direct_dft():
    # bin k of a 320-point FFT at 16 kHz sits at k*50 Hz; use k=20 -> 1 kHz
    k = 20
    t = np.arange(16000) / 16000.0
    sig = np.sin(2 * np.pi * (k * 50.0) * t)
    spec = dsp.power_spectrogram(sig)
    assert np.all(np.argmax(spec, axis=1) == k)
    # independent oracle: direct DFT of one windowed frame
    frame = sig[:320] * np.hanning(321)[:320]
    n = np.arange(320)
    direct = np.array([np.abs(np.sum(frame * np.exp(-2j * np.pi * b * n / 320))) ** 2 for b in range(161)])
    assert np.argmax(direct) == k


@pytest.mark.parametrize("n", [1, 320, 400])
def test_periodic_hann_matches_scipy_bitwise(n):
    from scipy.signal import get_window

    assert np.array_equal(dsp.periodic_hann(n), get_window("hann", n, fftbins=True))


def test_spectrogram_power_scaling():
    rng = np.random.default_rng(1)
    sig = rng.normal(size=4000)
    a = 3.0
    p1 = dsp.power_spectrogram(sig).sum()
    p2 = dsp.power_spectrogram(a * sig).sum()
    assert p2 == pytest.approx(a**2 * p1, rel=1e-12)


def test_signal_too_short():
    with pytest.raises(ValueError, match="shorter than one"):
        dsp.power_spectrogram(np.zeros(100))


def test_mel_origin_both_variants():
    assert dsp.hz_to_mel(0.0, "htk") == 0.0
    assert dsp.hz_to_mel(0.0, "slaney") == 0.0


def test_mel_htk_700hz():
    assert dsp.hz_to_mel(700.0, "htk") == pytest.approx(2595.0 * np.log10(2.0), abs=1e-9)


def test_mel_hz_inverse():
    for variant in ("htk", "slaney"):
        f = np.linspace(0, 8000, 33)
        back = dsp.mel_to_hz(dsp.hz_to_mel(f, variant), variant)
        assert np.allclose(back, f, atol=1e-8)


def test_zero_signal_zero_filterbank():
    out = dsp.mel_filterbank(np.zeros(2000))
    assert np.all(out == 0)
    assert out.shape[1] == 80


def test_mel_filter_matrix_properties():
    fb = dsp.mel_filter_matrix(512, 80, "slaney")
    assert np.all(fb >= 0)
    # each triangle's max sits at the bin nearest its center frequency
    mel_pts = np.linspace(dsp.hz_to_mel(0.0), dsp.hz_to_mel(8000.0), 80 + 2)
    centers = np.asarray(dsp.mel_to_hz(mel_pts))[1:-1]
    fft_freqs = np.arange(257) * 16000.0 / 512
    for m in range(80):
        peak_bin = np.argmax(fb[m])
        assert abs(fft_freqs[peak_bin] - centers[m]) <= 16000.0 / 512


@pytest.mark.parametrize("n_mels, variant, needle", [(0, "slaney", "n_mels"), (80, "mel", "variant")])
def test_mel_filter_matrix_bad_arguments(n_mels, variant, needle):
    with pytest.raises(ValueError, match=needle):
        dsp.mel_filter_matrix(512, n_mels, variant)


def test_resample_identity_rate():
    sig = np.random.default_rng(2).normal(size=100)
    assert np.array_equal(dsp.resample_to_mono_16k(sig, 16000), sig)


def test_resample_output_length():
    out = dsp.resample_to_mono_16k(np.zeros(44100), 44100)
    assert len(out) == int(np.ceil(44100 * 16000 / 44100))


def test_resample_spectral_peak():
    rate = 44100
    t = np.arange(rate * 2) / rate
    sig = np.sin(2 * np.pi * 1000.0 * t)
    out = dsp.resample_to_mono_16k(sig, rate)
    spec = dsp.power_spectrogram(out).mean(axis=0)
    peak_hz = np.argmax(spec) * 16000 / 320
    assert abs(peak_hz - 1000.0) <= 50.0  # within one bin


def test_upsampling_refused():
    with pytest.raises(ValueError, match="upsampling"):
        dsp.resample_to_mono_16k(np.zeros(100), 8000)


@pytest.mark.parametrize("shape", [(100, 2), ()])
def test_resample_refuses_signal_not_1d(shape):
    with pytest.raises(ValueError, match=re.escape(f"expected a 1-D mono signal, got shape {shape}")):
        dsp.resample_to_mono_16k(np.zeros(shape), 44100)


def test_wav_roundtrip(tmp_path):
    from scipy.io import wavfile

    rng = np.random.default_rng(4)
    pcm = (rng.uniform(-0.5, 0.5, 1000) * 32767).astype(np.int16)
    wavfile.write(tmp_path / "a.wav", 16000, pcm)
    sig, rate = dsp.read_wav(tmp_path / "a.wav")
    assert rate == 16000
    assert np.allclose(sig, pcm / 32768.0)


def _whole_array_power(sig, window, stride, n_fft):
    # the unblocked formula: gather every frame, window, transform, square
    n = _frame_count(len(sig), window, stride)
    idx = np.arange(window)[None, :] + stride * np.arange(n)[:, None]
    return np.abs(np.fft.rfft(sig[idx] * dsp.periodic_hann(window), n=n_fft, axis=1)) ** 2


@pytest.mark.parametrize("n_frames", [dsp._FRAME_BLOCK - 1, dsp._FRAME_BLOCK, dsp._FRAME_BLOCK + 1])
def test_spectrogram_frame_blocks_match_whole_array(n_frames):
    n_samples = (n_frames - 1) * 160 + 320 + 7  # 7 unused tail samples
    sig = np.random.default_rng(n_frames).normal(size=n_samples)
    out = dsp.power_spectrogram(sig)
    assert out.shape[0] == n_frames
    assert out.tobytes() == _whole_array_power(sig, 320, 160, 320).tobytes()


@pytest.mark.parametrize("n_frames", [dsp._FRAME_BLOCK - 1, dsp._FRAME_BLOCK, dsp._FRAME_BLOCK + 1,
                                      2 * dsp._FRAME_BLOCK, 3 * dsp._FRAME_BLOCK - 1])
def test_mel_frame_blocks_match_whole_array(n_frames):
    n_samples = (n_frames - 1) * 160 + 400
    sig = np.random.default_rng(n_frames).normal(size=n_samples)
    out = dsp.mel_filterbank(sig)
    assert out.shape[0] == n_frames
    want = _whole_array_power(sig, 400, 160, 512) @ dsp.mel_filter_matrix(512, 80, "slaney").T
    assert out.tobytes() == want.tobytes()


def test_frames_are_a_view():
    sig = np.arange(1000.0)
    frames = dsp._frame(sig, 320, 160)
    assert np.shares_memory(frames, sig)
    assert frames.shape == (_frame_count(1000, 320, 160), 320)
    assert np.array_equal(frames[2], sig[320:640])


def _old_read_and_mix(data):
    # the previous front end: float copy of the channels, then mean in float64
    if data.dtype == np.int16:
        data = data.astype(np.float32) / np.float32(32768.0)
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    return data.mean(axis=1, dtype=np.float64) if data.ndim == 2 else data.astype(np.float64)


def _wav_samples(dtype, n_frames, n_channels, rng):
    if np.dtype(dtype).kind == "i":
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, size=(n_frames, n_channels), endpoint=True).astype(dtype)
        data[:3] = [[info.min], [info.max], [0]]  # full-scale extremes and silence
    else:
        data = (rng.normal(size=(n_frames, n_channels)) * np.exp(4 * rng.normal(size=(n_frames, 1)))).astype(dtype)
        data[:4] = [[-1.0], [1.0], [0.0], [-0.0]]
        data[4, ::2] = -0.0  # mixed signed zeros
        data[4, 1::2] = 0.0
    return data[:, 0] if n_channels == 1 else data


@pytest.mark.parametrize("n_channels", [1, 2, 3, 6, 8, 9])
@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32, np.float64])
def test_read_wav_mono_bitwise_equals_old_mix(tmp_path, dtype, n_channels):
    from scipy.io import wavfile

    data = _wav_samples(dtype, dsp._MIX_BLOCK + 3, n_channels, np.random.default_rng(n_channels))
    wavfile.write(tmp_path / "a.wav", 44100, data)
    mono, rate = dsp.read_wav(tmp_path / "a.wav")
    assert rate == 44100
    assert mono.dtype == np.float64 and mono.shape == (data.shape[0],)
    assert mono.tobytes() == _old_read_and_mix(data).tobytes()


def _chunk(order, chunk_id, payload):
    return struct.pack(order + "4sI", chunk_id, len(payload)) + payload + b"\0" * (len(payload) % 2)


def _fmt(order, tag, channels, width, rate=44100, bits=None, extra=b""):
    block = channels * width
    return struct.pack(order + "HHIIHH", tag, channels, rate, rate * block, block,
                       8 * width if bits is None else bits) + extra


def _extensible(order, sub_tag):
    tail = bytes.fromhex("0000 1000 8000 00aa 0038 9b71" if order == "<" else "0000 0010 8000 00aa 0038 9b71")
    return struct.pack(order + "HHII", 22, 0, 0, sub_tag) + tail


def _riff(order, chunks):
    body = b"WAVE" + b"".join(_chunk(order, cid, payload) for cid, payload in chunks)
    return (b"RIFF" if order == "<" else b"RIFX") + struct.pack(order + "I", len(body)) + body


def _rf64(fmt, payload):
    chunks = _chunk("<", b"fmt ", fmt) + b"data\xff\xff\xff\xff" + payload
    riff_size = 4 + 36 + len(chunks)  # the form type, the ds64 chunk and the rest
    ds64 = struct.pack("<4sIQQQI", b"ds64", 28, riff_size, len(payload), 0, 0)
    return b"RF64\xff\xff\xff\xffWAVE" + ds64 + chunks


def _layout_case(case, rng):
    """WAV bytes in one of the layouts read_wav parses, all over _MIX_BLOCK + 3 frames."""
    n = dsp._MIX_BLOCK + 3
    if case == "rifx_pcm16":
        data = _wav_samples(np.int16, n, 2, rng)
        return _riff(">", [(b"fmt ", _fmt(">", 1, 2, 2)), (b"data", data.astype(">i2").tobytes())])
    if case == "rifx_float32_mono":
        data = _wav_samples(np.float32, n, 1, rng)
        return _riff(">", [(b"fmt ", _fmt(">", 3, 1, 4)), (b"data", data.astype(">f4").tobytes())])
    if case in ("extensible_pcm32", "extensible_float64", "rifx_extensible_pcm16"):
        order = ">" if case.startswith("rifx") else "<"
        dtype, tag = {"extensible_pcm32": (np.int32, 1), "extensible_float64": (np.float64, 3),
                      "rifx_extensible_pcm16": (np.int16, 1)}[case]
        data = _wav_samples(dtype, n, 3, rng)
        width = np.dtype(dtype).itemsize
        fmt = _fmt(order, 0xFFFE, 3, width, extra=_extensible(order, tag))
        return _riff(order, [(b"fmt ", fmt), (b"data", data.astype(order + data.dtype.str[1:]).tobytes())])
    if case == "odd_chunk_before_data":
        data = _wav_samples(np.int16, n, 2, rng)
        return _riff("<", [(b"fmt ", _fmt("<", 1, 2, 2)), (b"LIST", b"abc"), (b"junk", b"x" * 7),
                           (b"data", data.tobytes())])
    if case == "fmt_18_bytes":
        data = _wav_samples(np.float32, n, 2, rng)
        return _riff("<", [(b"fmt ", _fmt("<", 3, 2, 4, extra=b"\0\0")), (b"fact", struct.pack("<I", n)),
                           (b"data", data.tobytes())])
    if case == "fmt_19_bytes_padded":
        data = _wav_samples(np.int16, n, 6, rng)
        return _riff("<", [(b"fmt ", _fmt("<", 1, 6, 2, extra=b"\0\0z")), (b"data", data.tobytes())])
    if case in ("pcm24", "rifx_pcm24"):
        order = "<" if case == "pcm24" else ">"
        data = rng.integers(-(1 << 23), 1 << 23, size=(n, 2), dtype=np.int32)
        data[:3] = [[-(1 << 23)], [(1 << 23) - 1], [0]]
        quads = data.astype(order + "i4").view(np.uint8).reshape(-1, 4)
        payload = (quads[:, :3] if order == "<" else quads[:, 1:]).tobytes()
        return _riff(order, [(b"fmt ", _fmt(order, 1, 2, 3)), (b"data", payload)])
    if case == "rf64":
        data = _wav_samples(np.int16, n, 2, rng)
        return _rf64(_fmt("<", 1, 2, 2), data.tobytes())
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["rifx_pcm16", "rifx_float32_mono", "extensible_pcm32",
                                  "extensible_float64", "rifx_extensible_pcm16", "odd_chunk_before_data",
                                  "fmt_18_bytes", "fmt_19_bytes_padded", "pcm24", "rifx_pcm24", "rf64"])
def test_read_wav_layouts_match_scipy(tmp_path, case):
    import warnings

    from scipy.io import wavfile

    path = tmp_path / f"{case}.wav"
    path.write_bytes(_layout_case(case, np.random.default_rng(len(case))))
    mono, rate = dsp.read_wav(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)  # unknown chunks are skipped
        want_rate, data = wavfile.read(path)
    assert data.shape[0] == dsp._MIX_BLOCK + 3
    assert rate == want_rate == 44100
    assert mono.tobytes() == _old_read_and_mix(data.astype(data.dtype.newbyteorder("="))).tobytes()


def test_read_wav_from_pipe_equals_file(tmp_path):
    wav = _layout_case("odd_chunk_before_data", np.random.default_rng(3))
    path = tmp_path / "a.wav"
    path.write_bytes(wav)
    mono, rate = read_through_fifo(tmp_path / "pipe.wav", wav, dsp.read_wav)
    want, want_rate = dsp.read_wav(path)
    assert rate == want_rate and mono.tobytes() == want.tobytes()


@pytest.mark.parametrize("case, needle", [
    ("alaw", "unsupported WAV format tag 0x0006"),
    ("pcm64", "unsupported WAV sample format int64"),
    ("float16", "unsupported WAV sample format float16"),
    ("short_extensible", "extensible fmt chunk"),
    ("short_fmt", "fmt chunk of 14 bytes"),
    ("no_fmt", "no fmt chunk"),
    ("no_data", "no data chunk"),
    ("ragged_block_align", "block align of 5 bytes"),
    ("not_wave", "RIFF form type is b'AVI '"),
    ("rf64_no_ds64", "without a ds64 chunk"),
    ("cut_chunk_header", "truncated header at byte 40"),
])
def test_read_wav_rejects_malformed(tmp_path, case, needle):
    pcm = np.zeros((8, 2), dtype="<i2").tobytes()
    data = (b"data", pcm)
    files = {
        "alaw": _riff("<", [(b"fmt ", _fmt("<", 6, 2, 1)), data]),
        "pcm64": _riff("<", [(b"fmt ", _fmt("<", 1, 1, 8)), data]),
        "float16": _riff("<", [(b"fmt ", _fmt("<", 3, 2, 2)), data]),
        "short_extensible": _riff("<", [(b"fmt ", _fmt("<", 0xFFFE, 2, 2, extra=b"\0\0")), data]),
        "short_fmt": _riff("<", [(b"fmt ", _fmt("<", 1, 2, 2)[:14]), data]),
        "no_fmt": _riff("<", [data]),
        "no_data": _riff("<", [(b"fmt ", _fmt("<", 1, 2, 2)), (b"LIST", b"ab")]),
        "ragged_block_align": _riff("<", [(b"fmt ", struct.pack("<HHIIHH", 1, 2, 8000, 40000, 5, 16)), data]),
        "not_wave": b"RIFF" + struct.pack("<I", 4) + b"AVI ",
        "rf64_no_ds64": b"RF64\xff\xff\xff\xffWAVE" + _chunk("<", b"fmt ", _fmt("<", 1, 2, 2)),
        "cut_chunk_header": _riff("<", [(b"fmt ", _fmt("<", 1, 2, 2)), data])[:40],
    }
    path = tmp_path / f"{case}.wav"
    path.write_bytes(files[case])
    with pytest.raises(dsp.WavError, match=needle) as info:
        dsp.read_wav(path)
    assert str(path) in str(info.value)


def _up_down(rate):
    g = np.gcd(16000, rate)
    return 16000 // g, rate // g


def _assert_matches_scipy(x, rate):
    from scipy.signal import resample_poly

    out = dsp.resample_to_mono_16k(x, rate)
    want = resample_poly(x, *_up_down(rate))
    assert out.shape == want.shape == (-(-x.size * 16000 // rate),)
    assert np.abs(out - want).max() <= 1e-12 * np.abs(x).max(), (rate, x.size)


@pytest.mark.parametrize("rate", [22050, 32000, 44100, 48000, 96000, 44056])
def test_resample_matches_scipy_resample_poly(rate):
    up, down = _up_down(rate)
    n_filter = 20 * max(up, down) + 1
    rng = np.random.default_rng(rate)
    # length 1, shorter than the filter, about its length, and over several blocks
    for n in [1, 2, 17, n_filter // 3, n_filter - 1, n_filter + 1,
              2 * dsp._RESAMPLE_BLOCK * down // up + 12345]:
        _assert_matches_scipy(0.35 * rng.uniform(-1.0, 1.0, n), rate)


@pytest.mark.parametrize("rate", [44100, 48000, 44056])
def test_resample_block_edges(rate, monkeypatch):
    up, down = _up_down(rate)
    monkeypatch.setattr(dsp, "_RESAMPLE_BLOCK", 2 * up)  # two periods of up outputs per block
    n_filter = 20 * max(up, down) + 1
    rng = np.random.default_rng(0)
    # every length from a head-and-tail-only signal to one with several interior blocks
    for n in range(n_filter - 2 * down, n_filter + 9 * down, max(1, down // 2)):
        _assert_matches_scipy(rng.uniform(-1.0, 1.0, n), rate)


@pytest.mark.parametrize("up, down", [(160, 441), (1, 3), (5, 6), (4999, 5000)])
def test_kaiser_lowpass_bitwise_equals_sinc_kaiser(up, down):
    # (4999, 5000) takes 100,001 taps: several of _kaiser_lowpass's blocks
    half_len = 10 * max(up, down)
    cutoff = 1.0 / max(up, down)
    want = cutoff * np.sinc(cutoff * (np.arange(2 * half_len + 1, dtype=np.float64) - half_len))
    want *= np.kaiser(2 * half_len + 1, 5.0)
    want /= np.sum(want)
    want *= up
    h, got_half_len = dsp._kaiser_lowpass(up, down)
    assert got_half_len == half_len
    assert np.array_equal(h.view(np.int64), want.view(np.int64))
