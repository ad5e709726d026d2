"""Helpers that only the tests use: a one-subject linear dataset built from
the cohort builder, and a read through a named pipe that fails instead of
hanging.
"""

import contextlib
import os
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from voxenc.synthbench import SynthConfig, _activations, build_cohort


@dataclass
class SynthDataset:
    features: np.ndarray  # time x features at the activation rate
    features_at_tr: np.ndarray  # scans x features
    response: np.ndarray  # scans x targets
    true_weights: np.ndarray  # features x targets


def gen_linear_dataset(cfg: SynthConfig) -> SynthDataset:
    """One subject's worth of linearly generated data: the ``linear`` preset's first subject."""
    cohort = build_cohort("linear", cfg)
    y, w = next(cohort.subjects())
    return SynthDataset(_activations(cfg, cfg.seed), cohort.features[0], y, w)


def read_through_fifo(path, payload: bytes, read, timeout: float = 10.0):
    """``read(path)`` of a named pipe at ``path`` that a thread fills with ``payload``.

    The read runs in a daemon thread. If it has not returned after
    ``timeout`` seconds, for instance because it opened the path a second
    time and waits for a writer that will not come, a writer end is opened
    without blocking and closed, which lets a blocked ``open`` return, and
    the test fails. An exception from ``read`` is raised here.
    """
    os.mkfifo(path)
    threading.Thread(target=path.write_bytes, args=(payload,), daemon=True).start()
    result = {}

    def run():
        try:
            result["value"] = read(path)
        except BaseException as exc:  # handed to the test thread below
            result["error"] = exc

    reader = threading.Thread(target=run, daemon=True)
    reader.start()
    reader.join(timeout)
    if reader.is_alive():
        with contextlib.suppress(OSError):  # ENXIO: no reader is waiting in open
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout)
        pytest.fail(f"reading the named pipe {path} did not return within {timeout} s")
    if "error" in result:
        raise result["error"]
    return result["value"]
