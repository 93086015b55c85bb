"""Profiling layer: cache statistics and hot-path timers.

The simulator memoizes its hot paths — op-graph construction
(``op_graph``, ``affine_decode_graph`` in :mod:`repro.llm.graph`),
scalar step costs (``prefill_step_cost``, ``decode_step_cost`` in
:mod:`repro.engine.simulator`) and the vectorized decode-cost engine
(``decode_cost_engine`` in :mod:`repro.engine.vectorized`).  This module
is the front door to those caches plus a small wall-clock timer registry
used by ``scripts/bench.py`` to track simulator performance across PRs
(the ``BENCH_sim.json`` trajectory file).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..memo import (
    CacheStats,
    all_cache_stats,
    clear_all_caches,
    registered_caches,
)

__all__ = [
    "CacheStats", "TimerStat", "cache_stats", "reset_caches",
    "cache_report", "timed", "timer_stats", "reset_timers",
]


def cache_stats() -> dict[str, CacheStats]:
    """Hit/miss/size statistics for every simulator cache, by name."""
    return all_cache_stats()


def reset_caches() -> None:
    """Clear every simulator cache and zero its counters.

    Use between measurements that must not share state (cold-path
    benchmarks, leak hunts); correctness never requires it — cached
    values are identical to recomputed ones.
    """
    clear_all_caches()


def cache_report() -> str:
    """Human-readable one-line-per-cache summary."""
    lines = []
    for name in sorted(registered_caches()):
        stats = registered_caches()[name].stats()
        lines.append(
            f"{name:24s} hits={stats.hits:<8d} misses={stats.misses:<6d} "
            f"hit_rate={stats.hit_rate:6.1%} size={stats.size}/{stats.maxsize}"
            f" evictions={stats.evictions}")
    return "\n".join(lines)


@dataclass
class TimerStat:
    """Accumulated wall-clock time of one named code region.

    Keeps running count/total/min accumulators, never the samples, so a
    timer around a hot path stays O(1) in memory however often it runs.
    """

    name: str
    calls: int = 0
    total_s: float = 0.0
    _min_s: float = field(default=math.inf, repr=False)

    def record(self, elapsed_s: float) -> None:
        """Fold one measured duration into the accumulators."""
        self.calls += 1
        self.total_s += elapsed_s
        self._min_s = min(self._min_s, elapsed_s)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

    @property
    def min_s(self) -> float:
        return self._min_s if self.calls else 0.0


_TIMERS: dict[str, TimerStat] = {}


@contextmanager
def timed(name: str):
    """Accumulate the wall-clock time of the ``with`` body under ``name``."""
    stat = _TIMERS.setdefault(name, TimerStat(name))
    start = time.perf_counter()
    try:
        yield stat
    finally:
        stat.record(time.perf_counter() - start)


def timer_stats() -> dict[str, TimerStat]:
    """All accumulated timers, by name."""
    return dict(_TIMERS)


def reset_timers() -> None:
    """Drop every accumulated timer."""
    _TIMERS.clear()
