"""Counter-based deterministic random generator.

Output word k of stream s under seed q is

    mix64(q + (s + 1) * GAMMA_STREAM + (k + 1) * GAMMA)

where mix64 is the standard 64-bit finalizer (xor-shift / multiply rounds
with constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB) and GAMMA is the
golden-ratio increment 0x9E3779B97F4A7C15. Any (seed, stream, counter)
triple maps to the same word in any language with wrapping 64-bit
arithmetic, so simulated datasets are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)
GAMMA_STREAM = np.uint64(0xD1B54A32D192ED03)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

_U53 = np.float64(1.0 / (1 << 53))


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


class CounterRng:
    """Stateless-core generator: words are a pure function of the counter."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.stream = np.uint64(stream)
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next n 64-bit words; advances the counter."""
        with np.errstate(over="ignore"):
            k = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
            base = self.seed + (self.stream + np.uint64(1)) * GAMMA_STREAM
            words = _mix64(base + k * GAMMA)
        self._counter += n
        return words

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) with 53 random bits each."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * _U53

    def normal(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normals via Box-Muller on uniform pairs."""
        n = int(np.prod(shape))
        m = (n + 1) // 2
        u1 = self.uniform(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(1.0 - u1))  # 1-u1 keeps log away from 0
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape)
