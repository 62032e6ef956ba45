"""Machine speed, from fixed reference kernels timed between pieces of work.

On a shared machine the speed of one core changes in steps of up to 40 %
that last from seconds to tens of minutes.  A probe times four small
kernels, one for each kind of work imdbeam does: a pure-Python loop, hashing
through ``struct`` and ``hashlib`` (the independent-noise baseline draws its
phases that way), a numpy ``exp`` over 4 MB and small complex matrix
products.  Work timed between two probes is scaled by
``REF_NOMINAL_S / mean(probe before, probe after)``: the seconds it would
take on a machine where the probe takes ``REF_NOMINAL_S``.
"""

import hashlib
import struct
import time

import numpy as np

REF_NOMINAL_S = 0.018  # probe time that scaled seconds refer to
PROBE_EVERY_S = 0.25  # timed work between two probes, at least


class SpeedProbe:
    """Probes between timed work, and the scale of each piece of work."""

    def __init__(self):
        self._vector = np.linspace(0.0, 1.0, 1 << 18) * 3j
        self._matrix = self._vector[:1024].reshape(32, 32)
        self.samples: list[float] = []
        self.parts: list[tuple[float, ...]] = []  # per probe, per kernel
        self.factor: dict = {}  # key of a timed piece of work -> its scale
        self._last = None
        self._pending: list = []
        self._pending_s = 0.0

    def _loop(self):
        total = 0
        for i in range(100_000):
            total += i * i

    def _hash(self):
        total = 0
        for i in range(10_000):
            key = struct.pack(">4q", 7, i, 3, 5)
            total += int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")

    def _exp(self):
        np.exp(self._vector)

    def _matmul(self):
        for _ in range(200):
            self._matrix @ self._matrix

    def probe(self) -> float:
        parts = []
        for kernel in (self._loop, self._hash, self._exp, self._matmul):
            start = time.perf_counter()
            kernel()
            parts.append(time.perf_counter() - start)
        self.parts.append(tuple(parts))
        self.samples.append(sum(parts))
        return self.samples[-1]

    def start(self):
        """Probe right before timed work, after any untimed work."""
        self.close()
        self._last = self.probe()

    def timed(self, key, seconds: float):
        """Note that ``key`` took ``seconds``; probe again once
        PROBE_EVERY_S seconds of work wait for their closing probe."""
        self._pending.append(key)
        self._pending_s += seconds
        if self._pending_s >= PROBE_EVERY_S:
            self.close()

    def close(self):
        """Probe, and scale the work timed since the previous probe."""
        if not self._pending:
            return
        following = self.probe()
        scale = REF_NOMINAL_S / ((self._last + following) / 2)
        for key in self._pending:
            self.factor[key] = scale
        self._last = following
        self._pending, self._pending_s = [], 0.0
