"""Machine-speed sampling, so that timings survive a noisy shared host.

On a small shared VM the speed of the same code drifts by tens of percent
within seconds, and process CPU time drifts with it (the slowdown comes
from contention for the physical core, not from descheduling).  So while a
pass runs, a timer signal interrupts it every ``PERIOD_S`` and times a
fixed probe shaped like twinvest's own work: numpy on scalars through
method calls, small objects, small arrays, number formatting, and one
array larger than the L2 cache.  The probe runs twice and only the second
run is timed, so that it measures the machine rather than the caches the
program left behind.  Each stretch of work between probes is then scaled
by ``REFERENCE_PROBE_S / local probe time``: a timing is reported in
seconds at the reference speed, and the probe time itself is excluded.

The reference probe time is a constant, so a faster program reads faster
and a faster moment of the machine does not.  ``REFERENCE_PROBE_S`` is
close to the probe's median time inside benchmark runs on a 2-vCPU Intel
Xeon VM with Python 3.11 and numpy 2.4, so there scaled seconds come out
near raw seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
REFERENCE_PROBE_S = 0.0022

_XS = np.linspace(0.0, 1.0, 101)
# 2 MB, beyond the L2 cache: the oracles stream arrays of this size, and a
# neighbour that contends for memory bandwidth slows them more than it
# slows interpreter work.
_BIG = np.linspace(0.0, 1.0, 250_000)
_OUT = np.empty_like(_BIG)


class _Curve:
    """Stand-in for a model primitive: a method evaluating numpy on a scalar."""

    __slots__ = ("scale", "rate")

    def __init__(self, scale: float, rate: float):
        self.scale = scale
        self.rate = rate

    def value(self, v):
        return self.scale * np.exp(-self.rate * v)


def _point(curve: _Curve, v: float) -> _Curve:
    x = float(curve.value(v))
    return _Curve(x, 0.5 * x)


def probe() -> float:
    """Fixed work shaped like twinvest's (scalar numpy calls through methods,
    small objects, small arrays, number formatting, one large array);
    returns its wall time."""
    t0 = time.perf_counter()
    curve = _Curve(0.3, 1.2)
    s = 0.0
    for _ in range(80):
        s += float(np.exp(-(0.5 + 0.3 * _XS)).sum())
        for j in range(12):
            p = _point(curve, 0.01 * j)
            s += p.scale / (p.rate + 1.0)
        s += len(f"{s:.12g}")
    for _ in range(2):
        np.multiply(_BIG, 0.5, out=_OUT)
        s += float(_OUT.sum())
    return time.perf_counter() - t0


def probe_median(n: int = 7) -> float:
    return statistics.median(probe() for _ in range(n))


class SpeedSampler:
    """Probes on a timer signal while running; converts intervals afterwards."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, probe time)

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        probe()  # refills the caches the program evicted; only the second run counts
        seconds = probe()
        self.samples.append((t0, time.perf_counter(), seconds))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._build()
        return False

    def _build(self):
        """Segments of work between probes, each with its speed factor.

        A segment's probe time is the median of the probes around it, which
        keeps one interrupted probe from skewing its neighbourhood.
        """
        durations = [d for _, _, d in self.samples] or [probe_median()]
        self.starts, self.ends, self.factors = [], [], []
        edges = [-float("inf")] + [b for _, b, _ in self.samples]
        stops = [a for a, _, _ in self.samples] + [float("inf")]
        for k, (lo, hi) in enumerate(zip(edges, stops)):
            near = durations[max(k - 2, 0): k + 2] or durations[-3:]
            self.starts.append(lo)
            self.ends.append(hi)
            self.factors.append(REFERENCE_PROBE_S / statistics.median(near))

    def median_probe_s(self) -> float:
        return statistics.median(d for _, _, d in self.samples) if self.samples else 0.0

    def scaled(self, a: float, b: float) -> float:
        """Work time inside ``[a, b]`` in reference-speed seconds."""
        total = 0.0
        k = max(bisect.bisect_right(self.ends, a) - 1, 0)
        while k < len(self.starts) and self.starts[k] < b:
            overlap = min(b, self.ends[k]) - max(a, self.starts[k])
            if overlap > 0.0:
                total += overlap * self.factors[k]
            k += 1
        return total

    def raw(self, a: float, b: float) -> float:
        """Work time inside ``[a, b]`` in wall seconds, probes excluded."""
        probes = sum(max(0.0, min(b, e) - max(a, s)) for s, e, _ in self.samples)
        return (b - a) - probes
