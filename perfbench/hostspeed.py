"""Workload time at a fixed host speed, from reference kernels run alongside.

The benchmark gets a few cores of a shared host whose speed changes by up to
about 2x from one second to the next, as other tenants load the same
physical cores.  Raw wall and CPU seconds then spread more from run to run
than any change worth detecting, and no run length averages that out.

A `SpeedMeter` splits a timed stretch into segments of about `PERIOD`
seconds.  A SIGALRM handler ends each segment, times two small fixed
kernels (one interpreter-bound, one numpy-bound) and starts the next
segment; the handler's own time is left out of the workload's.  A
segment's slowdown is the mean of the kernel times just before and just
after it, each over the kernel's time on the reference host (`NOMINAL`),
blended by the workload's interpreter weight.  Its reference time is its
raw time over that slowdown: the seconds it would take on the reference
host at full speed.  The benchmark reports these reference seconds, and
the raw seconds next to them in its record.

Signals reach Python between bytecodes, so a long C call (a large numpy
operation) only delays a tick; segments are timed as they fall.
"""

from __future__ import annotations

import resource
import signal
import time
from fractions import Fraction

PERIOD = 0.1
# Kernel times, in seconds, on the reference host (2-vCPU x86-64 guest, the
# fast state of its shared cores); they fix the unit of the reference seconds.
NOMINAL = {"interp": 0.0026, "vector": 0.0026}


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _interp() -> Fraction:
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
    return s


class _Vector:
    def __init__(self):
        import numpy as np
        self.np = np
        self.a = np.random.default_rng(0).standard_normal(1 << 17)

    def __call__(self):
        np, a = self.np, self.a
        return float((np.exp(-a * a) * np.cos(a) + np.sqrt(np.abs(a))).sum())


class SpeedMeter:
    """Raw and reference-host times of stretches of work in this process.

    `interp_weight` is the share of the interpreter kernel in the slowdown;
    below 1 the numpy kernel runs too, so numpy must be importable.
    """

    def __init__(self, interp_weight: float = 1.0):
        self.w = float(interp_weight)
        self.vector = _Vector() if self.w < 1.0 else None
        self.ticking = False

    def _calibrate(self) -> None:
        t0 = time.perf_counter()
        _interp()
        t1 = time.perf_counter()
        if self.vector is not None:
            self.vector()
        t2 = time.perf_counter()
        slow = self.w * (t1 - t0) / NOMINAL["interp"]
        if self.vector is not None:
            slow += (1.0 - self.w) * (t2 - t1) / NOMINAL["vector"]
        self.kernels.append((t1 - t0, t2 - t1))
        self.slowdowns.append(slow)

    def _tick(self, signum=None, frame=None) -> None:
        if self.ticking:        # a late signal inside the closing tick
            return
        self.ticking = True
        w, c = time.perf_counter(), _cpu()
        self.segments.append((w - self.w0, c - self.c0))
        self._calibrate()
        self.w0, self.c0 = time.perf_counter(), _cpu()
        self.ticking = False

    def start(self) -> None:
        self.segments, self.kernels, self.slowdowns = [], [], []
        self._calibrate()
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.w0, self.c0 = time.perf_counter(), _cpu()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> dict:
        """End the stretch; its raw and reference wall and CPU seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._tick()
        signal.signal(signal.SIGALRM, self.previous)
        out = {"wall": 0.0, "cpu": 0.0, "wall_ref": 0.0, "cpu_ref": 0.0}
        for i, (wall, cpu) in enumerate(self.segments):
            slow = 0.5 * (self.slowdowns[i] + self.slowdowns[i + 1])
            out["wall"] += wall
            out["cpu"] += cpu
            out["wall_ref"] += wall / slow
            out["cpu_ref"] += cpu / slow
        out["segments"] = self.segments
        out["kernels"] = self.kernels
        return out
