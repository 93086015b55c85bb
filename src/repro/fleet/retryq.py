"""Retry queue: the fleet's (due, row)-ordered resubmission heap.

One class owns the ordering invariant that requeueing failed attempts,
draining due retries each tick, shedding the queue when the fleet goes
unroutable, and the quiet-tick skipper's peek at the next due time all
rely on.  Entries pop in ``(due_s, row)`` order; rows of a run's
:class:`~repro.fleet.table.RequestTable` are in request-id order, so
two retries due at the same instant resubmit in id order.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable


class RetryQueue:
    """Min-heap of request rows awaiting resubmission, as
    ``(due_s, row)`` tuples."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def next_due_s(self) -> float | None:
        """Due time of the earliest entry, if any (non-destructive)."""
        return self._heap[0][0] if self._heap else None

    def push(self, due_s: float, row: int) -> None:
        """Schedule ``row`` for resubmission at ``due_s``."""
        heapq.heappush(self._heap, (due_s, row))

    def pop_due(self, now: float) -> list[int]:
        """Pop every row due at or before ``now``, in (due, row) order."""
        due: list[int] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[1])
        return due

    def drain(self) -> list[int]:
        """Pop everything, in (due, row) order (unroutable-shed path)."""
        due: list[int] = []
        heap = self._heap
        while heap:
            due.append(heapq.heappop(heap)[1])
        return due

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> list[list]:
        """``[[due_s, row], ...]``, heap-ordered (restore re-heapifies)."""
        return [[due, row] for due, row in self._heap]

    def from_state(self, entries: Iterable[Iterable],
                   check_row: Callable[[object], int]) -> None:
        """Rebuild from :meth:`to_state`; ``check_row`` validates rows."""
        self._heap = [(float(due), check_row(row)) for due, row in entries]
        heapq.heapify(self._heap)
