"""Profiling layer: cache statistics.

The simulator memoizes two hot paths — prefill step costs
(``prefill_step_cost`` in :mod:`repro.engine.simulator`) and the
fleet's shared step-cost tables (``step_cost_table`` in
:mod:`repro.serving.stepcost`).  Decode steps, costed by one column
pass per generation or afresh per scalar call, and op graphs, built
for a one-block twin of 14 operators, are not memoized.
This module is the front door to those caches: their hit/miss
counters, a reset, and a one-line-per-cache report
(``scripts/bench.py`` prints them).
Wall-clock time per layer is measured from outside the program, by
``perfbench``'s tracer, so the simulator carries no timers.
"""

from __future__ import annotations

from ..memo import (
    CacheStats,
    all_cache_stats,
    clear_all_caches,
    registered_caches,
)

__all__ = ["CacheStats", "cache_stats", "reset_caches", "cache_report"]


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
