"""Peak-memory gates for the streaming stages, ``run``'s levels and scores, ``standardize``
and the resampling filter.

Each command runs in a fresh process that imports everything it needs, notes
its peak RSS, runs the command and notes the peak again. The growth must stay
under a fixed multiple of the input's size in bytes. The last four tests,
``test_run_score_memory``, ``test_fold_cache_within_budget``,
``test_standardize_peak_memory`` and ``test_kaiser_lowpass_peak_memory``,
trace allocations in this process.
Measured on the code that makes each large array once (2-vCPU x86-64):

- ``hrf-convolve``: 1.28x, the input read straight into its array plus
  block-sized normalised columns and spectra. A float32 input grows by 1.54x
  its own bytes: each block casts its columns as it copies them. Casting the
  whole input to float64 first gave 3.96x.
- ``featurize --kind mel`` of stereo PCM16: 3.0x. Reading holds the float64
  mono mix (2.0x); the peak comes while resampling, which holds the mix and
  the 16 kHz signal. The mel projection runs block by block and stays below
  that.
- ``featurize --kind spectrogram`` of 6-channel PCM16: 0.99x. The mono mix
  is a third of the samples' size, so a copy of the samples would show.

Before, a normalised copy of the activations, a copy of the file's samples
in the WAV reader and the full power spectrogram that ``mel_filterbank``
projected gave 2.21x, 3.89x and 1.66x; whole-array versions that held
full-length spectra or a float64 stereo copy measured 8.3x and 10.7x.
"""

import json
import os
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import voxenc
from voxenc import dsp, encode, matrixio
from voxenc.cli import main
from voxenc.synthbench import even_blocks

#: Levels of the manifest run in test_run_levels_memory.
RUN_LEVELS, RUN_LEVEL_COLS = 12, 30
HRF_MAX_GROWTH = 1.6
HRF_FLOAT32_MAX_GROWTH = 2.0
FEATURIZE_MAX_GROWTH = 3.4
FEATURIZE_6CH_MAX_GROWTH = 1.3
#: Subjects, levels and targets of test_run_score_memory, and its bound on the
#: traced peak as a multiple of the levels x subjects x targets score array.
SCORE_SUBJECTS, SCORE_LEVELS, SCORE_TARGETS = 20, 12, 20000
SCORE_MAX_PEAK = 2.5
#: Rows, levels, columns per level, targets and subjects of
#: test_fold_cache_within_budget, and the bytes its bound allows for Python objects.
FOLD_ROWS, FOLD_LEVELS, FOLD_LEVEL_COLS, FOLD_TARGETS, FOLD_SUBJECTS = 240, 8, 12, 700, 3
FOLD_SLACK = 64 * 1024
#: Bound on ``standardize``'s traced peak as a multiple of its train rows' bytes.
STANDARDIZE_MAX_PEAK = 1.1
#: Bound on ``dsp._kaiser_lowpass``'s traced peak as a multiple of its filter's bytes.
FILTER_MAX_PEAK = 1.5

pytestmark = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="needs VmHWM from /proc/self/status")

# VmHWM is the peak RSS of this process's own address space. ru_maxrss is not
# used: Linux carries it over from the parent across fork and exec, so a child
# of a large test process would start at the parent's peak.
_CHILD = """
import sys
from voxenc.cli import main

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak_kib()
main(sys.argv[1:], standalone_mode=False)
print(before, peak_kib())
"""


def _rss_growth_bytes(args):
    src = str(Path(voxenc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _CHILD, *args], env=env, capture_output=True,
                         text=True, check=True).stdout
    before, after = map(int, out.split()[-2:])
    return (after - before) * 1024


def test_hrf_convolve_peak_memory(tmp_path):
    act = np.random.default_rng(0).normal(size=(8000, 256))
    matrixio.write_matrix(tmp_path / "act.fmx", act)
    growth = _rss_growth_bytes(["hrf-convolve", "--in", str(tmp_path / "act.fmx"),
                                "--out", str(tmp_path / "aligned.fmx"), "--n-scans", "80"])
    assert growth < HRF_MAX_GROWTH * act.nbytes, growth / act.nbytes


def test_hrf_convolve_float32_peak_memory(tmp_path):
    act = np.random.default_rng(0).normal(size=(8000, 256)).astype(np.float32)
    matrixio.write_matrix(tmp_path / "act.fmx", act)
    growth = _rss_growth_bytes(["hrf-convolve", "--in", str(tmp_path / "act.fmx"),
                                "--out", str(tmp_path / "aligned.fmx"), "--n-scans", "80"])
    assert growth < HRF_FLOAT32_MAX_GROWTH * act.nbytes, growth / act.nbytes


def _write_pcm16(path, n_channels, seconds=60, rate=44100):
    noise = 0.1 * np.random.default_rng(1).normal(size=(seconds * rate, n_channels))
    pcm = (np.clip(noise, -1.0, 1.0) * 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(n_channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())
    return pcm.nbytes


def test_featurize_mel_peak_memory(tmp_path):
    nbytes = _write_pcm16(tmp_path / "audio.wav", 2)
    growth = _rss_growth_bytes(["featurize", "--wav", str(tmp_path / "audio.wav"), "--kind", "mel",
                                "--out", str(tmp_path / "mel.fmx")])
    assert growth < FEATURIZE_MAX_GROWTH * nbytes, growth / nbytes


def test_featurize_spectrogram_6ch_peak_memory(tmp_path):
    nbytes = _write_pcm16(tmp_path / "audio.wav", 6)
    growth = _rss_growth_bytes(["featurize", "--wav", str(tmp_path / "audio.wav"),
                                "--kind", "spectrogram", "--out", str(tmp_path / "spec.fmx")])
    assert growth < FEATURIZE_6CH_MAX_GROWTH * nbytes, growth / nbytes


def test_run_levels_memory(tmp_path):
    """``run`` scores its levels as column prefixes of one feature matrix X.

    A 12-level run (2000 scans x 30 columns per level, 20 targets, 4 blocks)
    must grow by no more than a 1-level run over the same 360 columns plus
    X's own size, which the 12-level run holds once more while column-
    stacking its files. Measured growths (2-vCPU x86-64): 49.7 MB at one
    level and 79.8 MB at twelve when each level was its own column-stacked
    copy (O(L^2) columns); 43.9 and 43.8 MB with prefixes of one X.
    """
    rng = np.random.default_rng(2)
    X = rng.normal(size=(2000, RUN_LEVELS * RUN_LEVEL_COLS))
    matrixio.write_matrix(tmp_path / "all.fmx", X)
    features = []
    for level in range(RUN_LEVELS):
        path = f"level{level:02d}.fmx"
        matrixio.write_matrix(tmp_path / path, X[:, level * RUN_LEVEL_COLS:(level + 1) * RUN_LEVEL_COLS])
        features.append({"name": f"level{level:02d}", "path": path, "sample_rate": 0.5})
    matrixio.write_matrix(tmp_path / "sub0.fmx", rng.normal(size=(2000, 20)))
    matrixio.write_json(tmp_path / "manifest.json", {
        "subjects": [{"id": "sub0", "response": "sub0.fmx"}], "features": features,
        "blocks": even_blocks(2000, 4), "rois": {}, "n_rows": 2000, "n_targets": 20})
    growth = {}
    for name, extra in (("levels", {}),
                        ("one", {"features": [{"name": "all", "path": str(tmp_path / "all.fmx")}]})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / name),
                                      "manifest": str(tmp_path / "manifest.json"), **extra}))
        growth[name] = _rss_growth_bytes(["run", "--config", str(config)])
    assert growth["levels"] - growth["one"] <= X.nbytes, growth


def test_run_score_memory(tmp_path, monkeypatch):
    """``run`` keeps its levels x subjects x targets scores in one array.

    ``brain_score`` is stubbed to return seeded scores, so what is measured
    is the bookkeeping around it: the traced peak of a 20-subject, 12-level,
    20000-target run over the 38.4 MB score array. Measured (2-vCPU x86-64):
    4.87x when ``run`` held per-subject score lists, their array copy,
    per-level copies and two copies of the deltas; 2.83x with the one array
    plus the level deltas, once as a list and once stacked; 1.92x with the
    deltas subtracted into one array and freed before the group test.
    """
    n_rows, blocks = 9, even_blocks(9, 3)
    rng = np.random.default_rng(3)
    features = []
    for level in range(SCORE_LEVELS):
        path = f"level{level:02d}.fmx"
        matrixio.write_matrix(tmp_path / path, rng.normal(size=(n_rows, 1)))
        features.append({"name": f"level{level:02d}", "path": path, "sample_rate": 0.5})
    matrixio.write_matrix(tmp_path / "sub.fmx", rng.normal(size=(n_rows, SCORE_TARGETS)))
    matrixio.write_json(tmp_path / "manifest.json", {
        "subjects": [{"id": f"sub{i:02d}", "response": "sub.fmx"} for i in range(SCORE_SUBJECTS)],
        "features": features, "blocks": blocks, "rois": {}, "n_rows": n_rows,
        "n_targets": SCORE_TARGETS})
    (tmp_path / "run.json").write_text(json.dumps({"out_dir": str(tmp_path / "out"),
                                                   "manifest": str(tmp_path / "manifest.json")}))
    calls = iter(range(SCORE_SUBJECTS))

    def seeded_scores(X, Y, blocks, sets, grid=None, folds=None):
        r = np.random.default_rng(next(calls)).uniform(-0.2, 0.4, size=(len(sets), Y.shape[1]))
        return [encode.ScoreMap(r_mean=row, r_per_fold=row[None], undefined=row < 0) for row in r]

    original = encode.brain_score
    for name, module in list(sys.modules.items()):  # every module that bound brain_score
        if name.startswith("voxenc") and getattr(module, "brain_score", None) is original:
            monkeypatch.setattr(module, "brain_score", seeded_scores)
    tracemalloc.start()
    try:
        res = CliRunner().invoke(main, ["run", "--config", str(tmp_path / "run.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    score_bytes = SCORE_SUBJECTS * SCORE_LEVELS * SCORE_TARGETS * 8
    assert peak < SCORE_MAX_PEAK * score_bytes, peak / score_bytes


def test_fold_cache_within_budget():
    """``score_subjects`` keeps fold work on X within one response's bytes.

    Three subjects are scored against 8 column prefixes of X (12 to 96
    columns, 4 folds of 180 train rows, 700 targets). Kept, every fold and
    level would hold 4.86 MB; the budget, one 240 x 700 response (1.34 MB),
    holds one fold. So the traced peak may exceed that of one ``brain_score``
    call, which keeps nothing, by no more than the budget and the score array
    (bound 1.54 MB with the slack). Measured (2-vCPU x86-64): 1.36 MB with
    one fold kept, 4.58 MB when every fold was kept.
    """
    rng = np.random.default_rng(5)
    X = rng.normal(size=(FOLD_ROWS, FOLD_LEVELS * FOLD_LEVEL_COLS))
    Ys = [rng.normal(size=(FOLD_ROWS, FOLD_TARGETS)) for _ in range(FOLD_SUBJECTS)]
    blocks = even_blocks(FOLD_ROWS, 4)
    sets = [slice(FOLD_LEVEL_COLS * (level + 1)) for level in range(FOLD_LEVELS)]
    encode.brain_score(X, Ys[0], blocks, sets)  # first-call allocations are not the run's
    peak = {}
    for name, score in (("one call", lambda: encode.brain_score(X, Ys[0], blocks, sets)),
                        ("run", lambda: encode.score_subjects(X, Ys, FOLD_SUBJECTS, blocks, sets))):
        tracemalloc.start()
        try:
            score()
            peak[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    budget = Ys[0].nbytes
    scores = FOLD_LEVELS * FOLD_SUBJECTS * FOLD_TARGETS * 8
    assert peak["run"] - peak["one call"] <= budget + scores + FOLD_SLACK, (peak, budget)


def test_standardize_peak_memory():
    """``standardize`` overwrites the fresh train copy ``brain_score`` hands it.

    The traced peak of one wide fold's call (733 train and 67 test rows of
    2048 targets) over the train rows' bytes measured (2-vCPU x86-64) 1.19x
    when ``train - mean`` was a new array beside the copy, and 1.01x in place:
    the centred temporary of numpy's ``std``.
    """
    rows = np.random.default_rng(4).normal(size=(800, 2048))
    train, test = rows[:733].copy(), rows[733:].copy()
    tracemalloc.start()
    try:
        out, _, _, _ = encode.standardize(train, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STANDARDIZE_MAX_PEAK * train.nbytes, peak / train.nbytes
    assert out is train


def test_kaiser_lowpass_peak_memory():
    """``dsp._kaiser_lowpass`` builds its filter in blocks of taps.

    The traced peak of the largest filter ``featurize`` accepts (1,048,541
    taps at 52,427 Hz, 8.4 MB) over the filter's bytes measured (2-vCPU
    x86-64) 13.5x when ``np.sinc`` and ``np.kaiser`` ran on the whole tap
    range, and 1.21x in blocks of 16384 taps.
    """
    dsp._kaiser_lowpass(1, 3)  # first-call allocations are not the build's
    tracemalloc.start()
    try:
        h, _ = dsp._kaiser_lowpass(16000, 52427)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.size == 1_048_541
    assert peak < FILTER_MAX_PEAK * h.nbytes, peak / h.nbytes
