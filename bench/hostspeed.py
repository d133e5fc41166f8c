"""Host-speed reference: a fixed probe timed at regular intervals during a run.

The hosts this benchmark targets share their cores with other tenants, and
their speed drifts by up to a factor of about 1.6 over phases that last
minutes, longer than a run.  No bound a benchmark can keep survives that,
so the end-to-end times of an untraced run are scaled to the nominal host
speed: each measured interval is multiplied by ``NOMINAL_S / r``, where
``r`` is the mean time of the reference probe over the samples taken during
the interval, topped up with the ones nearest to it to ``MIN_SAMPLES``.

The probe runs from a SIGALRM handler every ``INTERVAL_S`` seconds, so it
also samples the host during long operations; Python runs the handler in
the main thread between bytecodes, never inside a numpy call, and the time
it takes is subtracted from the operation it interrupted.  The probe mixes
the three kinds of work the workloads do: many small eigensolves and
matrix-vector products (the d = 9 step), dense 81 x 81 eigensolves, and a
pure-Python integer loop (the box oracle).  It does not call adiophantine,
so no change to the program moves it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy

# Median probe time on a quiet host (Intel Xeon at 2.1 GHz, one BLAS thread).
NOMINAL_S = 0.075
INTERVAL_S = 1.0
MIN_SAMPLES = 10


class Reference:
    def __init__(self) -> None:
        rng = numpy.random.default_rng(0)
        small = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        dense = rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81))
        self._small = small + small.conj().T
        self._dense = dense + dense.conj().T
        self._vector = numpy.ones(9, dtype=numpy.complex128)
        self.samples: list[tuple[float, float]] = []  # (midpoint, probe time)
        self.probe_time = 0.0  # total time spent in the probe

    def _probe(self) -> None:
        for _ in range(1100):
            w, v = numpy.linalg.eigh(self._small)
            x = v @ (numpy.exp(-0.02j * w) * (v.conj().T @ self._vector))
            numpy.linalg.norm(x)
        for _ in range(30):
            numpy.linalg.eigh(self._dense)
        total = 0
        for i in range(250_000):
            total += i * i % 7

    def sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        self._probe()
        elapsed = time.perf_counter() - t
        self.samples.append((t + 0.5 * elapsed, elapsed))
        self.probe_time += elapsed

    @contextlib.contextmanager
    def sampling(self):
        """Sample once at entry, every ``INTERVAL_S`` inside, once at exit."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def factor(self, start: float, end: float) -> float:
        """Multiplier from measured to nominal seconds for work in [start, end]."""
        def distance(sample):
            return max(start - sample[0], sample[0] - end, 0.0)

        near = sorted(self.samples, key=distance)
        inside = sum(distance(s) == 0.0 for s in near)
        return NOMINAL_S / statistics.fmean(p for _, p in near[: max(inside, MIN_SAMPLES)])
