"""Reference kernels that measure the machine's speed during a pass.

A shared host's CPU speed drifts by a factor of up to two within a
minute, and the drift reaches every timing of a pass alike.  So each pass
also times a fixed kernel that does not call npk, between its units, and
scales each unit's time by ``REF_MS / kernel time`` around that unit: it
reads as milliseconds on a machine where the kernel takes ``REF_MS``.  A
change to npk moves the scaled times as it moves the raw ones; a change
in the machine's speed moves the kernel too and cancels.

Each workload uses the kernel closest to its own work, because the drift
does not slow every kind of code alike: small numpy operations driven
from Python for ``suite`` and ``pointwise``, a dense SVD for ``algebra``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((8, 8)) / 4.0
_V = _rng.standard_normal(8)
_M = _rng.standard_normal((256, 48))


def small_ops() -> None:
    """250 steps of an 8-dim map: Python-driven small numpy operations."""
    x = _V
    for _ in range(250):
        x = np.tanh(_A @ x + 1.0)


def dense_svd() -> None:
    """A full SVD of a 256 x 48 matrix, the operation derivation_basis is made of."""
    np.linalg.svd(_M)


# workload -> (kernel, its median time in ms on the baseline's machine, a
# 2-vCPU 2.0 GHz Xeon with one OpenBLAS thread).  The kernel runs before a
# unit once 20 times its own length has passed since its last run, so it
# takes about 5% of a pass.
KERNELS = {
    "suite": (small_ops, 1.0),
    "pointwise": (small_ops, 1.0),
    "algebra": (dense_svd, 3.5),
}
EVERY = 20
WINDOW = 2          # kernel runs on each side of a unit that set its scale
WARMUP = 3          # untimed kernel runs before the first unit


class Calibrator:
    """Times the workload's kernel between units; gives each unit's scale."""

    def __init__(self, workload: str) -> None:
        self.kernel, self.ref_ms = KERNELS[workload]
        self.every_s = EVERY * self.ref_ms / 1e3
        for _ in range(WARMUP):
            self.kernel()
        self.samples: list[float] = []   # kernel times, ms
        self.before: list[int] = []      # per unit: kernel runs made before it
        self.last = -float("inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.last = time.perf_counter()
        self.samples.append((self.last - t0) * 1e3)

    def before_unit(self) -> None:
        if time.perf_counter() - self.last >= self.every_s:
            self.sample()
        self.before.append(len(self.samples))

    def scales(self) -> list[float]:
        """Per unit, ``REF_MS`` over the median of the WINDOW kernel runs on each side of it.

        Call after a last ``sample()`` that follows the last unit.
        """
        k = self.samples
        return [self.ref_ms / statistics.median(k[max(0, n - WINDOW):n + WINDOW]) for n in self.before]
