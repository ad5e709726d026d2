"""Seeded inputs and operation plans for the three benchmark workloads.

Everything here is generated from ``--seed`` with numpy's PCG64 and written
with the benchmark's own FMX1 writer, so the program under test receives only
files and configs. The same (workload, seed) pair gives byte-identical files.

An operation plan is a list of dicts, one per CLI call:

    {"name": "ctc_eval_007", "kind": "ctc_eval",
     "args": ["ctc-eval", "--logprobs", ...], "outputs": [...]}

``args`` are relative to the workload's work directory, which is the child
process's working directory.
"""

from __future__ import annotations

import json
import struct
import wave
from pathlib import Path

import numpy as np

WORKLOADS = ("replica_run", "wide_score", "aux_stages")

# replica_run: the paper's cohort analysis through `voxenc run`.
REPLICA = {
    "preset": "replica",
    "n_subjects": 20,
    "n_features": 8,
    "n_scans": 120,
    "n_blocks": 12,
    "n_targets": 1000,
    "n_time_activation": 12200,
}

# wide_score: one subject, few large ridge solves.
WIDE_SCANS, WIDE_COLS, WIDE_TARGETS, WIDE_BLOCKS = 800, 250, 2048, 12

# aux_stages: the stages `encode` does not touch.
AUDIO_SECONDS, AUDIO_RATE = 600, 44100
ACT_ROWS, ACT_COLS, ACT_RATE, ACT_TR, ACT_SCANS = 30000, 768, 50.0, 2.0, 300
CTC_CALLS, CTC_FRAMES, CTC_CLASSES, CTC_LABELS = 200, 400, 37, 60
GROUP_SUBJECTS, GROUP_TARGETS = 20, 20000


def write_fmx(path: Path, data: np.ndarray) -> None:
    """FMX1 container: magic, dtype code (1 = float64), ndim, uint64 dims, payload."""
    arr = np.ascontiguousarray(data, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(b"FMX1" + struct.pack("<BB", 1, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.tobytes())


def read_fmx(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != b"FMX1":
        raise ValueError(f"{path}: not an FMX1 file")
    code, ndim = struct.unpack("<BB", raw[4:6])
    shape = struct.unpack(f"<{ndim}Q", raw[6 : 6 + 8 * ndim])
    dtype = {0: "<f4", 1: "<f8"}[code]
    return np.frombuffer(raw[6 + 8 * ndim :], dtype=dtype).reshape(shape).astype(np.float64)


def even_blocks(n_rows: int, n_blocks: int) -> list[list[int]]:
    edges = np.linspace(0, n_rows, n_blocks + 1).round().astype(int)
    return [[int(edges[i]), int(edges[i + 1])] for i in range(n_blocks)]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def prepare(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the workload's inputs for ``seed`` into ``work``; return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    work.mkdir(parents=True, exist_ok=True)
    return {"replica_run": _replica, "wide_score": _wide, "aux_stages": _aux}[workload](
        seed, work, _rng(workload, seed)
    )


def _replica(seed: int, work: Path, rng: np.random.Generator) -> list[dict]:
    config = {"out_dir": "replica_out", "seed": seed, "synth": {**REPLICA, "seed": seed}}
    (work / "run.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    outputs = [f"replica_out/{n}" for n in ("report.json", "group_delta.fmx")]
    return [{"name": "run", "kind": "run", "args": ["run", "--config", "run.json"], "outputs": outputs}]


def _wide(seed: int, work: Path, rng: np.random.Generator) -> list[dict]:
    n, p, t = WIDE_SCANS, 2 * WIDE_COLS, WIDE_TARGETS
    X = rng.standard_normal((n, p))
    # a quarter pure noise, the rest SNR spread over [0.05, 1], so chosen
    # penalties spread over the grid
    snr = rng.uniform(0.05, 1.0, t)
    snr[rng.permutation(t)[: t // 4]] = 0.0
    signal = X @ rng.standard_normal((p, t))
    signal /= signal.std(axis=0)
    Y = signal * np.sqrt(snr) + rng.standard_normal((n, t))
    write_fmx(work / "features_a.fmx", X[:, :WIDE_COLS])
    write_fmx(work / "features_b.fmx", X[:, WIDE_COLS:])
    write_fmx(work / "response.fmx", Y)
    manifest = {
        "subjects": [{"id": "sub000", "response": "response.fmx"}],
        "features": [
            {"name": "model_a", "path": "features_a.fmx", "sample_rate": 0.5},
            {"name": "model_b", "path": "features_b.fmx", "sample_rate": 0.5},
        ],
        "blocks": even_blocks(n, WIDE_BLOCKS),
        "rois": {"all": list(range(t))},
        "n_rows": n,
        "n_targets": t,
    }
    (work / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    args = ["score", "--features", "features_a.fmx,features_b.fmx", "--response", "response.fmx",
            "--manifest", "manifest.json", "--out", "scores.fmx", "--report", "score_report.json"]
    return [{"name": "score", "kind": "score", "args": args,
             "outputs": ["scores.fmx", "score_report.json"]}]


def _write_wav(path: Path, rng: np.random.Generator) -> None:
    n = AUDIO_SECONDS * AUDIO_RATE
    chunk = 60 * AUDIO_RATE  # one minute at a time keeps this process small
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(AUDIO_RATE)
        for start in range(0, n, chunk):
            t = np.arange(start, min(start + chunk, n)) / AUDIO_RATE
            # noise plus one slowly gliding tone per channel
            stereo = 0.05 * rng.standard_normal((t.size, 2))
            stereo[:, 0] += 0.3 * np.sin(2 * np.pi * (220 + 0.2 * t) * t)
            stereo[:, 1] += 0.2 * np.sin(2 * np.pi * (330 + 0.1 * t) * t)
            fh.writeframes(np.clip(stereo * 32767, -32768, 32767).astype("<i2").tobytes())


def ctc_instance(rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """Peaky, model-like log-posteriors around a random alignment of the targets.

    Each label holds 1-3 frames, blanks fill the rest (at least one between
    neighbours), and the aligned class gets a logit boost of 4-9 over noise.
    """
    targets = rng.integers(1, CTC_CLASSES, size=CTC_LABELS)
    durations = rng.integers(1, 4, size=CTC_LABELS)
    spare = CTC_FRAMES - durations.sum() - (CTC_LABELS - 1)
    gaps = rng.multinomial(spare, np.full(CTC_LABELS + 1, 1.0 / (CTC_LABELS + 1)))
    gaps[1:-1] += 1
    path = []
    for g, lab, d in zip(gaps, targets, durations):
        path += [0] * int(g) + [int(lab)] * int(d)
    path += [0] * int(gaps[-1])
    logits = rng.standard_normal((CTC_FRAMES, CTC_CLASSES))
    logits[np.arange(CTC_FRAMES), path] += rng.uniform(4.0, 9.0, CTC_FRAMES)
    m = logits.max(axis=1, keepdims=True)
    log_probs = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
    return log_probs, [int(v) for v in targets]


def _aux(seed: int, work: Path, rng: np.random.Generator) -> list[dict]:
    _write_wav(work / "audio.wav", rng)
    write_fmx(work / "activations.fmx", rng.standard_normal((ACT_ROWS, ACT_COLS)))
    ops = [
        {"name": f"featurize_{kind}", "kind": "featurize",
         "args": ["featurize", "--wav", "audio.wav", "--kind", kind, "--out", f"{kind}.fmx"],
         "outputs": [f"{kind}.fmx"]}
        for kind in ("spectrogram", "mel")
    ]
    ops.append({"name": "hrf_convolve", "kind": "hrf_convolve",
                "args": ["hrf-convolve", "--in", "activations.fmx", "--out", "aligned.fmx",
                         "--input-rate", str(ACT_RATE), "--tr", str(ACT_TR),
                         "--n-scans", str(ACT_SCANS)],
                "outputs": ["aligned.fmx"]})
    (work / "ctc").mkdir(exist_ok=True)
    for i in range(CTC_CALLS):
        log_probs, targets = ctc_instance(rng)
        write_fmx(work / f"ctc/lp_{i:03d}.fmx", log_probs)
        (work / f"ctc/tg_{i:03d}.txt").write_text(" ".join(map(str, targets)) + "\n")
        ops.append({"name": f"ctc_eval_{i:03d}", "kind": "ctc_eval",
                    "args": ["ctc-eval", "--logprobs", f"ctc/lp_{i:03d}.fmx",
                             "--targets", f"ctc/tg_{i:03d}.txt"],
                    "outputs": []})
    # delta-R across subjects: a small positive shift on 30 % of targets
    shift = np.where(rng.random(GROUP_TARGETS) < 0.3, 0.01, 0.0)
    write_fmx(work / "group.fmx", shift + 0.02 * rng.standard_normal((GROUP_SUBJECTS, GROUP_TARGETS)))
    ops.append({"name": "group_stats", "kind": "group_stats",
                "args": ["group-stats", "--in", "group.fmx", "--alternative", "greater",
                         "--q", "0.05", "--out", "group_stats.json"],
                "outputs": ["group_stats.json"]})
    return ops
