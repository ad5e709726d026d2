"""Output checks: independent oracles plus references recorded from the seed code.

``check`` returns one list of problems per operation; an operation with any
problem counts as failed. The oracles here share no code with the program:

* ``wide_score``: a sample of targets is rescored with block detrending,
  train-only z-scoring, ridge from the normal equations (eigendecomposition
  of X'X, never the SVD of X the program uses), leave-one-out selection from
  the hat-matrix diagonal (ties toward the larger penalty) and Pearson r.
* ``replica_run``: model B must win on more than half the targets, the
  report's group block must match scipy's exact Wilcoxon plus our own BH,
  and sampled (subject, target) cells of the delta file are rescored with
  the ``wide_score`` oracle on the synth data the run wrote.
* ``aux_stages``: every ``group-stats`` p-value against
  ``scipy.stats.wilcoxon(method="exact")`` and the mask against our own BH;
  each CTC log-likelihood against a scaled linear-space forward pass and the
  greedy decode against argmax-and-collapse; ``hrf-convolve`` on sampled
  columns against a direct convolution with a double-gamma kernel built
  from ``math.lgamma``; ``featurize`` on sampled frames against a periodic
  Hann window, numpy's ``rfft`` and a Slaney mel matrix built here, after
  scipy's ``resample_poly`` of the frame's stretch of the WAV.

References (``refs.json``) hold fingerprints of each operation's outputs for a
set of seeds, recorded from the seed code with ``record_refs.py``. For a seed
in the table every fingerprint must match within REF_RTOL / REF_ATOL
(integers and strings exactly); other seeds get the oracles only.
"""

from __future__ import annotations

import json
import math
import wave
from pathlib import Path

import numpy as np

from workloads import (
    ACT_COLS, ACT_RATE, ACT_SCANS, ACT_TR, AUDIO_RATE, AUDIO_SECONDS, GROUP_SUBJECTS, GROUP_TARGETS,
    REPLICA, WIDE_TARGETS, read_fmx,
)

REF_RTOL, REF_ATOL = 1e-8, 1e-12
R_TOL = 1e-8  # wide_score oracle vs program, absolute on Pearson r
CTC_RTOL = 1e-8  # ctc-eval prints 10 significant digits
P_RTOL = 1e-9  # group-stats p-values vs scipy
HRF_RTOL = 1e-9  # relative to the column's largest output
FEAT_RTOL = 1e-9  # relative to the frame's largest value
WIDE_SAMPLE, HRF_SAMPLE = 24, 8
REPLICA_SUBJECTS, REPLICA_TARGETS = 3, 32
GRID = np.logspace(1.0, 8.0, 20)  # the program's default penalty grid


def check(workload: str, work: Path, plan: list[dict], ops: list[dict],
          seed: int, refs: dict | None) -> list[list[str]]:
    """Problems per operation for the outputs left in ``work`` by the last pass."""
    problems: list[list[str]] = [[] for _ in plan]
    recorded = (refs or {}).get(workload, {}).get(str(seed))
    for i, (op, res) in enumerate(zip(plan, ops)):
        try:
            problems[i] += ORACLES[op["kind"]](work, op, res, seed)
            if recorded is not None:
                current = FINGERPRINTS[op["kind"]](work, op, res)
                problems[i] += [f"reference mismatch: {d}"
                                for d in compare(recorded.get(op["name"]), current, op["name"])]
        except Exception as exc:  # missing or malformed output
            problems[i].append(f"check could not run: {type(exc).__name__}: {exc}")
    return problems


# --- fingerprints and reference comparison ---------------------------------

def fingerprint(plan: list[dict], ops: list[dict], work: Path) -> dict:
    """Compact, tolerance-comparable summary of each operation's outputs."""
    return {op["name"]: FINGERPRINTS[op["kind"]](work, op, res) for op, res in zip(plan, ops)}


def _matrix_print(m: np.ndarray) -> dict:
    """Shape, total, every 10th column sum and 16 evenly spaced row sums."""
    rows = np.linspace(0, m.shape[0] - 1, 16).astype(int)
    return {"shape": list(m.shape), "sum": float(m.sum()),
            "col_sums": m[:, ::10].sum(axis=0).tolist(), "row_sums": m[rows].sum(axis=1).tolist()}


def _print_run(work: Path, op: dict, res: dict) -> dict:
    report = json.loads((work / op["outputs"][0]).read_text())
    return {k: v for k, v in report.items() if k != "stages"}


def _print_score(work: Path, op: dict, res: dict) -> dict:
    r = read_fmx(work / op["outputs"][0])
    return {"shape": list(r.shape), "sum": float(r.sum()),
            "sumsq": float((r**2).sum()), "head": r[:16].tolist()}


def _print_group(work: Path, op: dict, res: dict) -> dict:
    doc = json.loads((work / op["outputs"][0]).read_text())
    return {"n_significant": doc["n_significant"],
            "p_sum": float(sum(p for p in doc["p_raw"] if p is not None))}


FINGERPRINTS = {
    "run": _print_run,
    "score": _print_score,
    "featurize": lambda work, op, res: _matrix_print(read_fmx(work / op["outputs"][0])),
    "hrf_convolve": lambda work, op, res: _matrix_print(read_fmx(work / op["outputs"][0])),
    "ctc_eval": lambda work, op, res: _parse_ctc(res["stdout"])[0],
    "group_stats": _print_group,
}


def compare(ref, cur, path: str) -> list[str]:
    if ref is None:
        return [f"{path}: no recorded value"]
    if isinstance(ref, dict):
        if not isinstance(cur, dict) or set(ref) != set(cur):
            return [f"{path}: keys differ"]
        return [d for k in sorted(ref) for d in compare(ref[k], cur[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(cur, list) or len(ref) != len(cur):
            return [f"{path}: length differs"]
        return [d for i, (a, b) in enumerate(zip(ref, cur)) for d in compare(a, b, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(cur, (int, float)):
        if abs(cur - ref) <= REF_ATOL + REF_RTOL * abs(ref):
            return []
        return [f"{path}: {cur!r} vs recorded {ref!r}"]
    return [] if cur == ref else [f"{path}: {cur!r} vs recorded {ref!r}"]


# --- shared oracle pieces ----------------------------------------------------

def bh_mask(p: np.ndarray, q: float) -> np.ndarray:
    """Benjamini-Hochberg: reject the k smallest p with p_(k) <= k q / m."""
    m = p.size
    order = np.argsort(p, kind="stable")
    ok = p[order] <= q * np.arange(1, m + 1) / m
    mask = np.zeros(m, dtype=bool)
    if ok.any():
        mask[order[: np.flatnonzero(ok).max() + 1]] = True
    return mask


def _wilcoxon_exact(values: np.ndarray) -> np.ndarray:
    from scipy.stats import wilcoxon

    return wilcoxon(values, axis=0, alternative="greater", method="exact").pvalue


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


# --- replica_run ---------------------------------------------------------------

def _oracle_run(work: Path, op: dict, res: dict, seed: int) -> list[str]:
    report = json.loads((work / op["outputs"][0]).read_text())
    delta = read_fmx(work / op["outputs"][1])
    n_t = REPLICA["n_targets"]
    if delta.shape != (REPLICA["n_subjects"], n_t):
        return [f"group_delta shape {delta.shape}"]
    out = []
    if report.get("schema_version") != 1:
        out.append(f"schema_version {report.get('schema_version')}")
    wins = float((delta.mean(axis=0) > 0).mean())
    if not wins > 0.5:
        out.append(f"model B wins on {wins:.1%} of targets, expected > 50 %")
    group = report.get("group", {})
    n_sig = int(bh_mask(_wilcoxon_exact(delta), 0.05).sum())
    if group.get("n_significant") != n_sig or group.get("n_targets") != n_t:
        out.append(f"group block {group} vs oracle n_significant {n_sig} of {n_t}")
    if not _close(group.get("positive_mean_delta", np.nan), float(delta.mean()), 1e-12, 1e-15):
        out.append("group positive_mean_delta differs from group_delta.fmx mean")
    if report.get("scores", {}).get("n_targets") != n_t:
        out.append(f"report scores.n_targets {report.get('scores', {}).get('n_targets')}")
    # rescore sampled (subject, target) cells from the synth data the run wrote
    data = work / Path(op["outputs"][0]).parent / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    A, B = (read_fmx(data / f["path"]) for f in manifest["features"])
    rng = np.random.default_rng([seed, 96])
    cols = np.sort(rng.choice(n_t, REPLICA_TARGETS, replace=False))
    for s in np.sort(rng.choice(REPLICA["n_subjects"], REPLICA_SUBJECTS, replace=False)):
        Y = read_fmx(data / manifest["subjects"][s]["response"])[:, cols]
        want = (dense_ridge_scores(np.hstack([A, B]), Y, manifest["blocks"])
                - dense_ridge_scores(A, Y, manifest["blocks"]))
        err = np.abs(delta[s, cols] - want)
        if err.max() > R_TOL:
            out.append(f"subject {int(s)} target {int(cols[err.argmax()])}: delta r differs "
                       f"from the dense oracle by {err.max():.3g}")
    return out


# --- wide_score ----------------------------------------------------------------

def _zscore(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu, sd = train.mean(axis=0), train.std(axis=0)
    live = sd > 0
    a, b = np.zeros_like(train), np.zeros_like(test)
    a[:, live] = (train[:, live] - mu[live]) / sd[live]
    b[:, live] = (test[:, live] - mu[live]) / sd[live]
    return a, b


def _pearson_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    den = np.sqrt((a**2).sum(axis=0) * (b**2).sum(axis=0))
    return np.where(den > 0, (a * b).sum(axis=0) / np.where(den > 0, den, 1.0), 0.0)


def dense_ridge_scores(X: np.ndarray, Y: np.ndarray, blocks: list[list[int]]) -> np.ndarray:
    """Leave-one-block-out mean Pearson r per column of Y, by the dense route.

    Per fold the normal equations (X'X + lam I) w = X'y are solved through one
    eigendecomposition X'X = V diag(e) V', which also gives the hat-matrix
    diagonal h_i = x_i' (X'X + lam I)^-1 x_i = sum_k (x_i . v_k)^2 / (e_k + lam).
    """
    Y = Y.copy()
    for a, b in blocks:  # remove intercept + slope per block
        t = np.arange(b - a, dtype=np.float64)
        A = np.column_stack([np.ones_like(t), t])
        Y[a:b] -= A @ np.linalg.solve(A.T @ A, A.T @ Y[a:b])
    rows = np.arange(X.shape[0])
    r = np.zeros((len(blocks), Y.shape[1]))
    for f, (a, b) in enumerate(blocks):
        test = (rows >= a) & (rows < b)
        Xtr, Xte = _zscore(X[~test], X[test])
        Ytr, Yte = _zscore(Y[~test], Y[test])
        e, V = np.linalg.eigh(Xtr.T @ Xtr)
        proj2 = (Xtr @ V) ** 2
        VtXtY = V.T @ (Xtr.T @ Ytr)
        best = np.full(Y.shape[1], np.inf)
        W = np.zeros((X.shape[1], Y.shape[1]))
        for lam in GRID:  # ascending, so "<=" breaks ties toward the larger penalty
            inv = 1.0 / (e + lam)
            w = V @ (inv[:, None] * VtXtY)
            h = proj2 @ inv
            mse = (((Ytr - Xtr @ w) / (1.0 - h)[:, None]) ** 2).mean(axis=0)
            take = mse <= best
            best[take] = mse[take]
            W[:, take] = w[:, take]
        r[f] = _pearson_cols(Yte, Xte @ W)
    return r.mean(axis=0)


def _oracle_score(work: Path, op: dict, res: dict, seed: int) -> list[str]:
    r = read_fmx(work / op["outputs"][0])
    if r.shape != (WIDE_TARGETS,) or not np.all(np.abs(r) <= 1.0):
        return [f"scores shape {r.shape} or |r| > 1"]
    out = []
    rep = json.loads((work / op["outputs"][1]).read_text())
    if rep.get("scores", {}).get("n_targets") != WIDE_TARGETS:
        out.append("report n_targets mismatch")
    manifest = json.loads((work / "manifest.json").read_text())
    X = np.hstack([read_fmx(work / f["path"]) for f in manifest["features"]])
    Y = read_fmx(work / "response.fmx")
    cols = np.sort(np.random.default_rng([seed, 99]).choice(WIDE_TARGETS, WIDE_SAMPLE, replace=False))
    err = np.abs(dense_ridge_scores(X, Y[:, cols], manifest["blocks"]) - r[cols])
    if err.max() > R_TOL:
        out.append(f"target {int(cols[err.argmax()])}: r differs from the dense oracle by {err.max():.3g}")
    return out


# --- aux_stages ----------------------------------------------------------------

def _parse_ctc(stdout: str) -> tuple[float, list[int]]:
    ll = decoded = None
    for line in stdout.splitlines():
        if line.startswith("log_likelihood = "):
            ll = float(line.split("=", 1)[1])
        elif line.startswith("decoded ="):
            decoded = [int(v) for v in line.split("=", 1)[1].split()]
    if ll is None or decoded is None:
        raise ValueError(f"unparsable ctc-eval output {stdout[:200]!r}")
    return ll, decoded


def ctc_forward_linear(log_probs: np.ndarray, targets: list[int]) -> float:
    """CTC log-likelihood by the scaled forward recursion in probability space."""
    probs = np.exp(log_probs)
    ext = np.zeros(2 * len(targets) + 1, dtype=int)
    ext[1::2] = targets
    S = ext.size
    skip = np.zeros(S, dtype=bool)
    skip[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])
    alpha = np.zeros(S)
    alpha[:2] = probs[0, ext[:2]]
    log_scale = 0.0
    for t in range(1, probs.shape[0]):
        nxt = alpha.copy()
        nxt[1:] += alpha[:-1]
        nxt[2:] += np.where(skip[2:], alpha[:-2], 0.0)
        alpha = nxt * probs[t, ext]
        c = alpha.sum()
        alpha /= c
        log_scale += math.log(c)
    return log_scale + math.log(alpha[-1] + alpha[-2])


def _collapse(path) -> list[int]:
    out, prev = [], None
    for c in path:
        if c != prev and c != 0:
            out.append(int(c))
        prev = c
    return out


def _double_gamma(rate: float, seconds: float = 32.0) -> np.ndarray:
    t = np.arange(int(round(seconds * rate))) / rate

    def pdf(k: float) -> np.ndarray:
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp((k - 1) * np.log(t[pos]) - t[pos] - math.lgamma(k))
        return out

    h = pdf(6.0) - pdf(16.0) / 6.0
    return h / h.max()


def slaney_mel_matrix(n_fft: int, n_mels: int = 80, rate: float = 16000.0) -> np.ndarray:
    """Triangular filters on the Slaney mel scale (linear below 1 kHz, log
    above), centres equally spaced from 0 Hz to Nyquist; (n_mels, n_fft//2+1)."""
    lin, brk, step = 200.0 / 3.0, 1000.0, math.log(6.4) / 27.0

    def to_mel(f: float) -> float:
        return f / lin if f < brk else brk / lin + math.log(f / brk) / step

    def to_hz(m: float) -> float:
        return m * lin if m < brk / lin else brk * math.exp(step * (m - brk / lin))

    edges = [to_hz(m) for m in np.linspace(0.0, to_mel(rate / 2), n_mels + 2)]
    freqs = np.arange(n_fft // 2 + 1) * rate / n_fft
    fb = np.zeros((n_mels, freqs.size))
    for i in range(n_mels):
        lo, mid, hi = edges[i : i + 3]
        fb[i] = np.clip(np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)), 0.0, None)
    return fb


def _mono_16k(wav_path: Path, start: int, stop: int) -> np.ndarray:
    """Input samples [start, stop) as float mono, resampled 44.1 kHz -> 16 kHz.

    ``start`` is 0 or a multiple of 441, so output sample k of the segment is
    output sample k + start * 160 / 441 of the whole file; the margin the
    caller leaves is far wider than the resampling filter.
    """
    from scipy.signal import resample_poly

    with wave.open(str(wav_path), "rb") as fh:
        fh.setpos(start)
        raw = np.frombuffer(fh.readframes(stop - start), dtype="<i2")
    mono = raw.reshape(-1, 2).astype(np.float64).mean(axis=1) / 32768.0
    return resample_poly(mono, 160, 441)


def _oracle_featurize(work: Path, op: dict, res: dict, seed: int) -> list[str]:
    """Recompute sampled frames: periodic Hann window, zero-padded rfft power,
    and for ``mel`` the Slaney filterbank; 10 ms stride at 16 kHz."""
    kind = op["args"][4]
    window, n_fft = {"spectrogram": (320, 320), "mel": (400, 512)}[kind]
    m = read_fmx(work / op["outputs"][0])
    n_frames = (AUDIO_SECONDS * 16000 - window) // 160 + 1
    bins = 161 if kind == "spectrogram" else 80
    if m.shape != (n_frames, bins) or not np.all(np.isfinite(m)) or m.min() < 0:
        return [f"shape {m.shape} (expected {(n_frames, bins)}), non-finite or negative values"]
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(window) / window)
    fb = slaney_mel_matrix(n_fft) if kind == "mel" else None
    n_in = AUDIO_SECONDS * AUDIO_RATE
    interior = np.random.default_rng([seed, 97]).choice(np.arange(1, n_frames - 1), 4, replace=False)
    for t in [0, n_frames - 1, *sorted(interior.tolist())]:
        first = t * 160  # first 16 kHz sample of the frame
        start = max(0, (first * 441 // 160) // 441 - 4) * 441
        stop = min(n_in, (first + window) * 441 // 160 + 2000)
        seg = _mono_16k(work / "audio.wav", start, stop)
        off = first - start * 160 // 441
        power = np.abs(np.fft.rfft(seg[off : off + window] * hann, n=n_fft)) ** 2
        want = fb @ power if fb is not None else power
        if np.abs(m[t] - want).max() > FEAT_RTOL * want.max():
            return [f"frame {t} differs from the recomputed {kind} frame"]
    return []


def _oracle_hrf(work: Path, op: dict, res: dict, seed: int) -> list[str]:
    aligned = read_fmx(work / op["outputs"][0])
    if aligned.shape != (ACT_SCANS, ACT_COLS):
        return [f"shape {aligned.shape}"]
    acts = read_fmx(work / op["args"][2])
    h = _double_gamma(ACT_RATE)
    scan_rows = np.rint(np.arange(ACT_SCANS) * ACT_TR * ACT_RATE).astype(int)
    for j in np.random.default_rng([seed, 98]).choice(ACT_COLS, HRF_SAMPLE, replace=False):
        col = acts[:, j]
        want = np.convolve((col - col.min()) / (col.max() - col.min()), h)[scan_rows]
        if np.abs(aligned[:, j] - want).max() > HRF_RTOL * np.abs(want).max():
            return [f"column {int(j)} differs from direct convolution"]
    return []


def _oracle_ctc(work: Path, op: dict, res: dict, seed: int) -> list[str]:
    ll, decoded = _parse_ctc(res["stdout"])
    log_probs = read_fmx(work / op["args"][2])
    targets = [int(v) for v in (work / op["args"][4]).read_text().split()]
    want = ctc_forward_linear(log_probs, targets)
    out = [] if _close(ll, want, CTC_RTOL) else [f"log-likelihood {ll!r} vs oracle {want!r}"]
    if decoded != _collapse(np.argmax(log_probs, axis=1)):
        out.append("greedy decode differs from argmax-and-collapse")
    return out


def _oracle_group(work: Path, op: dict, res: dict, seed: int) -> list[str]:
    doc = json.loads((work / op["outputs"][0]).read_text())
    if (doc.get("n_subjects"), doc.get("n_targets")) != (GROUP_SUBJECTS, GROUP_TARGETS):
        return ["n_subjects / n_targets mismatch"]
    out = []
    p = np.array([np.nan if v is None else v for v in doc["p_raw"]])
    want = _wilcoxon_exact(read_fmx(work / op["args"][2]))
    bad = ~(np.abs(p - want) <= P_RTOL * np.abs(want))
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        out.append(f"{int(bad.sum())} p-values differ from scipy exact; target {j}: {p[j]!r} vs {want[j]!r}")
    if doc["significant"] != bh_mask(p, doc["q"]).tolist() or doc["n_significant"] != sum(doc["significant"]):
        out.append("significance mask differs from BH on the reported p-values")
    return out


ORACLES = {
    "run": _oracle_run,
    "score": _oracle_score,
    "featurize": _oracle_featurize,
    "hrf_convolve": _oracle_hrf,
    "ctc_eval": _oracle_ctc,
    "group_stats": _oracle_group,
}
