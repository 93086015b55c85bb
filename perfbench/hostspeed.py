"""Host-speed sampler: rescales measured seconds to a reference host.

A host shared with other tenants can change speed by tens of percent
within a few seconds.  :class:`HostSpeed` times a tiny fixed
pure-Python kernel on a ``SIGALRM`` interval timer, so probes land at
even wall-clock spacing *during* the measured work.  An interval's
seconds on the reference host are its wall seconds, less the probes' own
time, times the mean of ``REFERENCE_PROBE_S / probe`` over the probes
near it: the share of reference speed the host delivered meanwhile.
The kernel never touches ``repro`` and runs with the garbage collector
off, so a faster ``repro`` moves the result and a slower host does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Seconds one :func:`probe` takes on the reference host: an idle 2-vCPU
#: Intel Xeon VM running Python 3.11.
REFERENCE_PROBE_S = 0.000254
#: Seconds between probes: ~4% of the time goes to probing.  The host's
#: speed changes within tens of milliseconds, so many short probes track
#: it better than fewer long ones.
INTERVAL_S = 0.00625
#: Probes used for an interval that spans fewer of them than this.
MIN_PROBES = 8


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b

    def at(self, x: int) -> float:
        return self.a * x + self.b


def probe() -> float:
    """Seconds for a fixed kernel: method calls, dict stores, a sort.

    The collector is off meanwhile: a collection that ``repro``'s
    allocations made due runs in ``repro``'s time, not the probe's.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        points = [_Point(i * 0.5, i) for i in range(64)]
        slots: dict[int, float] = {}
        total = 0.0
        for r in range(15):
            for point in points:
                total += point.at(r)
                slots[(r * 7 + point.b) & 255] = total
            points.sort(key=lambda p: (p.b * 31 + r) % 67)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probes host speed every ``INTERVAL_S`` between start and stop.

    Only one may run per process: it owns ``SIGALRM``.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        self.probes.append((time.perf_counter(), probe()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, start: float, end: float) -> float:
        """Reference-host seconds of ``[start, end)``, probes excluded.

        Uses the probes inside the interval, or the ``MIN_PROBES``
        nearest to it when fewer landed inside.
        """
        inside = [seconds for at, seconds in self.probes if start <= at < end]
        wall = end - start - sum(inside)
        if len(inside) < MIN_PROBES:
            nearest = sorted(self.probes, key=lambda p: max(start - p[0],
                                                            p[0] - end, 0.0))
            inside = [seconds for _, seconds in nearest[:MIN_PROBES]]
        if not inside:
            return wall
        return wall * statistics.fmean(REFERENCE_PROBE_S / s for s in inside)
