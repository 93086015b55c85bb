"""Retry queue: the fleet's (due, id)-ordered resubmission heap.

Before this helper existed, :mod:`repro.fleet.cluster` open-coded the
same ``heapq`` triple ``(due_s, request_id, request)`` in three places
— requeueing failed attempts, draining due retries each tick, and
shedding the queue when the fleet goes unroutable.  The quiet-tick
skipper adds a fourth consumer (it needs to *peek* the next due
time), which made the duplication a liability: one class
now owns the ordering invariant.

Ordering matches the original open-coded heap exactly: entries pop in
``(due_s, request_id)`` order, so two retries due at the same instant
resubmit in id order and reports stay bit-identical.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable

from ..serving.scheduler import ServeRequest


class RetryQueue:
    """Min-heap of requests awaiting resubmission.

    Entries are ``(due_s, request_id, request)`` tuples; the id in the
    middle makes heap order total without comparing requests.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, ServeRequest]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def next_due_s(self) -> float | None:
        """Due time of the earliest entry, if any (non-destructive)."""
        return self._heap[0][0] if self._heap else None

    def push(self, due_s: float, request: ServeRequest) -> None:
        """Schedule ``request`` for resubmission at ``due_s``."""
        heapq.heappush(self._heap, (due_s, request.request_id, request))

    def pop_due(self, now: float) -> list[ServeRequest]:
        """Pop every entry due at or before ``now``, in (due, id) order."""
        due: list[ServeRequest] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[2])
        return due

    def drain(self) -> list[ServeRequest]:
        """Pop everything, in (due, id) order (unroutable-shed path)."""
        due: list[ServeRequest] = []
        heap = self._heap
        while heap:
            due.append(heapq.heappop(heap)[2])
        return due

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> list[list]:
        """``[[due_s, request_id], ...]`` — the cluster snapshot schema.

        Requests are referenced by id (the run's request stream is
        serialized once elsewhere); the list is heap-ordered, which
        restore re-heapifies anyway.
        """
        return [[due, request_id] for due, request_id, _ in self._heap]

    def from_state(self, entries: Iterable[Iterable],
                   resolve: Callable[[int], ServeRequest]) -> None:
        """Rebuild from :meth:`to_state`, resolving ids to requests."""
        self._heap = []
        for due, request_id in entries:
            request = resolve(request_id)
            self._heap.append((float(due), request.request_id, request))
        heapq.heapify(self._heap)
