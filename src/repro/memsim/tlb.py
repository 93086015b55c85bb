"""TLB simulation and analytical miss modelling.

TDX's nested (EPT) translations and its refusal to use reserved 1 GB
hugepages (Insight 7) make TLB behaviour a first-order term of the
paper's overhead analysis.  This module provides:

* :class:`SetAssociativeTlb` — a functional set-associative LRU TLB used
  by tests to validate the analytical model on synthetic address streams;
* :func:`streaming_miss_rate` — the closed-form miss rate the execution
  engine uses for weight/KV streaming working sets;
* :func:`translation_time` — seconds of page-walk time for a byte stream.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np


class SetAssociativeTlb:
    """A set-associative TLB with true-LRU replacement per set.

    Args:
        entries: Total entry count (must be divisible by ``ways``).
        ways: Associativity.
        page_bytes: Page size the TLB holds translations for.
    """

    def __init__(self, entries: int, ways: int, page_bytes: int) -> None:
        if entries <= 0 or ways <= 0 or entries % ways != 0:
            raise ValueError("entries must be a positive multiple of ways")
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ValueError("page_bytes must be a positive power of two")
        self.entries = entries
        self.ways = ways
        self.page_bytes = page_bytes
        self.num_sets = entries // ways
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Translate one address; returns True on hit."""
        vpn = address // self.page_bytes
        target = self._sets[vpn % self.num_sets]
        if vpn in target:
            target.move_to_end(vpn)
            self.hits += 1
            return True
        self.misses += 1
        if len(target) >= self.ways:
            target.popitem(last=False)
        target[vpn] = None
        return False

    def access_range(self, start: int, length: int, stride: int = 64) -> None:
        """Touch every ``stride``-th byte in ``[start, start+length)``."""
        if length < 0 or stride <= 0:
            raise ValueError("length must be >= 0 and stride positive")
        for offset in range(0, length, stride):
            self.access(start + offset)

    @property
    def miss_rate(self) -> float:
        """Misses per access so far (0.0 before any access)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


def streaming_miss_rate(working_set_bytes: float, page_bytes: int,
                        tlb_entries: int) -> float:
    """Per-page-touch TLB miss probability for a cyclically streamed set.

    Under *random replacement* (which approximates hardware TLBs better
    than strict LRU — set conflicts and pseudo-LRU break the pathological
    cyclic-scan thrash), a repeatedly streamed working set keeps
    ``reach/ws`` of its pages resident in steady state:

    * ``ws <= reach``: 0.0
    * ``ws >  reach``: ``1 - reach/ws`` of page touches miss.

    A strict-LRU TLB (see :class:`SetAssociativeTlb`) thrashes completely
    on cyclic scans, so this closed form is a lower bound on what the
    functional simulator measures (tests check exactly that).
    """
    if working_set_bytes < 0:
        raise ValueError("working_set_bytes must be >= 0")
    reach = float(tlb_entries) * page_bytes
    if working_set_bytes <= reach:
        return 0.0
    return 1.0 - reach / working_set_bytes


def streaming_miss_rate_vec(working_set_bytes, page_bytes: int,
                            tlb_entries: int):
    """Array twin of :func:`streaming_miss_rate` (column costing)."""
    ws = np.asarray(working_set_bytes, dtype=float)
    if np.any(ws < 0):
        raise ValueError("working_set_bytes must be >= 0")
    reach = float(tlb_entries) * page_bytes
    safe = np.where(ws > 0.0, ws, 1.0)
    return np.where(ws <= reach, 0.0, 1.0 - reach / safe)


@dataclass(frozen=True)
class WalkModel:
    """Page-walk cost model.

    Attributes:
        native_walk_s: Effective cost of one non-virtualized walk.
        nested_multiplier: EPT/guest-walk inflation (TDX performs a 2-D
            walk: up to 24 loads instead of 4; walk caches bring the
            effective factor down to ~2.5-3.5x).
    """

    native_walk_s: float
    nested_multiplier: float = 1.0

    @property
    def walk_s(self) -> float:
        return self.native_walk_s * self.nested_multiplier


def translation_time(bytes_streamed: float, page_bytes: int,
                     miss_rate: float, walk: WalkModel) -> float:
    """Seconds spent in page walks while streaming ``bytes_streamed``.

    Page touches = bytes / page size; each touch misses with
    ``miss_rate`` and costs one walk.
    """
    if bytes_streamed < 0:
        raise ValueError("bytes_streamed must be >= 0")
    if not 0.0 <= miss_rate <= 1.0:
        raise ValueError("miss_rate must be in [0, 1]")
    page_touches = bytes_streamed / page_bytes
    return page_touches * miss_rate * walk.walk_s
