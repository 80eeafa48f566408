"""The speed of the host, sampled while phyres runs.

The benchmark runs on a few cores of a shared machine whose speed drifts by
25% and more within seconds as other tenants come and go; the time of a
fixed amount of phyres work drifts with it.  While a ``HostSampler`` is
active, a SIGALRM handler in the main thread runs a small fixed reference
kernel every ``INTERVAL_S`` of wall time and records the CPU time the kernel
took.  A measured wall time is then rescaled by the mean host speed the
samples saw during it: the result is the time the same work takes on a host
where one reference unit takes ``REF_UNIT_S``, about its time on the build
host when that is quiet.  The handler's own time is left out of every
measured time.

The kernel does what phyres spends its time on: Python loops over objects,
``np.array``/``np.stack`` of per-object fields, and small dense numpy maths.
It imports nothing from phyres, so no change to phyres changes the kernel.
It is timed with the CPU clock of the main thread, so that threads phyres
may start, or waits for the GIL, do not count as a slow host.
"""

from __future__ import annotations

import collections
import signal
import statistics
import time

import numpy as np

REF_UNIT_S = 0.00042  # thread CPU seconds of one unit, quiet build host
INTERVAL_S = 0.025
ITERATIONS_PER_UNIT = 3


class _Row:
    __slots__ = ("vec", "value")

    def __init__(self, i: int):
        self.vec = np.full(5, i * 0.01)
        self.value = float(i % 13)


_ROWS = [_Row(i) for i in range(200)]
_rng = np.random.default_rng(0)
_M = _rng.standard_normal((16, 16)) * 0.1
_X = _rng.standard_normal((64, 16))
del _rng


def _unit() -> float:
    """Thread CPU seconds of one reference unit."""
    c0 = time.thread_time()
    acc = 0.0
    for _ in range(ITERATIONS_PER_UNIT):
        v = np.array([r.value for r in _ROWS])
        w = np.stack([r.vec for r in _ROWS])
        acc += float(np.mean(np.sqrt(v * v + 1.0) - np.tanh(w[:, 0])))
        acc += float(np.tanh(_X @ _M).sum())
        for r in _ROWS:
            acc += r.value * 1.5
    return time.thread_time() - c0


Mark = collections.namedtuple("Mark", "wall_s overhead_s speed_sum samples")


class HostSampler:
    """Samples host speed from a SIGALRM handler while in a ``with`` block.

    Speed is ``REF_UNIT_S`` over the unit's time: 1 on the quiet build
    host, less on a busier one."""

    def __init__(self):
        self.overhead_s = 0.0    # wall time spent in the handler
        self.speed_sum = 0.0
        self.samples = 0
        self.recent = collections.deque(maxlen=16)
        self._old_handler = None

    def __enter__(self) -> "HostSampler":
        for _ in range(4):       # warm the kernel's caches
            _unit()
        for _ in range(16):
            self.recent.append(REF_UNIT_S / _unit())
        self._old_handler = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        speed = REF_UNIT_S / _unit()
        self.speed_sum += speed
        self.samples += 1
        self.recent.append(speed)
        self.overhead_s += time.perf_counter() - t0

    def speed(self) -> float:
        """Median speed over the last few samples."""
        return statistics.median(self.recent)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.overhead_s, self.speed_sum, self.samples)

    def since(self, mark: Mark) -> tuple[float, float]:
        """(wall seconds since ``mark`` without the handler's time, the same
        rescaled to the reference host speed)."""
        wall = time.perf_counter() - mark.wall_s - (self.overhead_s - mark.overhead_s)
        n = self.samples - mark.samples
        # samples come at even wall-clock intervals, so their mean speed is
        # the host's mean speed over the interval; a short one has too few
        speed = ((self.speed_sum - mark.speed_sum) / n if n >= 8 else self.speed())
        return wall, wall * speed

    def factor(self, mark: Mark) -> float:
        """What rescales a time since ``mark`` that includes the handler's
        time, such as a span of the tracer."""
        wall, rescaled = self.since(mark)
        return rescaled / (wall + self.overhead_s - mark.overhead_s)
