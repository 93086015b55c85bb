"""Columnar request streams and report views for the fleet core.

A million-request fleet run cannot afford a million
:class:`~repro.serving.scheduler.ServeRequest` /
:class:`~repro.serving.scheduler.RequestOutcome` objects plus
O(n)-per-tick list surgery.  Inside a run a request is a *row*:

* :class:`RequestTable` — the request stream as numpy columns (arrival,
  prompt, output, priority, tenant, id), rows in request-id order.  The
  generators in :mod:`repro.fleet.arrivals` build these, schedulers
  read its :meth:`~RequestTable.scalar_columns` by row, and
  ``list(table)`` materializes the value-equal request objects.
* :class:`~repro.serving.scheduler.OutcomeLog` — the run-wide
  first-token/finish/preemption columns the schedulers write by row.
* :class:`ColumnarOutcomes` and :class:`ShedLog` — the report-facing
  views, which build :class:`RequestOutcome` and
  :class:`~repro.faults.resilience.ShedRequest` records on demand
  while the report's aggregate math reads raw columns.

Everything here is a container; the fleet's behavior is pinned by the
golden snapshots and the ``fleet.jump_parity`` audit check.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Hashable, Sequence
from typing import NamedTuple

import numpy as np

from ..faults.resilience import SHED_REASONS, ShedRequest
from ..serving.scheduler import OutcomeLog, RequestOutcome, ServeRequest


class ScalarColumns(NamedTuple):
    """A table's hot-path columns as ``array`` copies (see
    :meth:`RequestTable.scalar_columns`)."""

    request_id: array
    arrival_s: array
    prompt_tokens: array
    output_tokens: array
    tenant_id: array


def _whole_column(name: str, values) -> np.ndarray:
    """``values`` as an int64 column, refusing what a cast would change.

    ``np.asarray(..., dtype=np.int64)`` truncates 3.7 to 3 and raises
    ``OverflowError`` on infinity; a column of integers passes through,
    and a float column must hold finite whole numbers within int64.
    """
    column = np.asarray(values)
    if column.dtype.kind in "biu":
        return column.astype(np.int64, copy=False)
    if column.size and (
            column.dtype.kind != "f"
            or not np.all(np.isfinite(column))
            or np.any(column != np.floor(column))
            or np.any(np.abs(column) >= 2.0 ** 63)):
        raise ValueError(f"{name} must be finite whole numbers")
    return column.astype(np.int64)


class RequestTable(Sequence):
    """A request stream stored as parallel numpy columns.

    Value-equal to a ``list[ServeRequest]`` sorted by request id
    (materialize any row with :meth:`request`) but holds flat arrays
    instead of n objects — ~50 bytes/request instead of ~500, and O(1)
    column access for the fleet's arrival drain and the report's
    percentile math.  Rows are kept in request-id order, so any
    tie-break by row is a tie-break by id.
    """

    __slots__ = ("request_id", "arrival_s", "prompt_tokens",
                 "output_tokens", "priority", "tenant_id", "_scalars",
                 "_derived")

    _COLUMNS = ("request_id", "arrival_s", "prompt_tokens", "output_tokens",
                "priority", "tenant_id")

    def __init__(self, request_id, arrival_s, prompt_tokens, output_tokens,
                 priority=None, tenant_id=None) -> None:
        self.request_id = _whole_column("request_id", request_id)
        self.arrival_s = np.asarray(arrival_s, dtype=np.float64)
        self.prompt_tokens = _whole_column("prompt_tokens", prompt_tokens)
        self.output_tokens = _whole_column("output_tokens", output_tokens)
        if priority is None:
            priority = np.zeros(len(self.request_id), dtype=np.int64)
        self.priority = _whole_column("priority", priority)
        if tenant_id is None:
            tenant_id = np.zeros(len(self.request_id), dtype=np.int64)
        self.tenant_id = _whole_column("tenant_id", tenant_id)
        self._scalars: ScalarColumns | None = None
        self._derived: dict = {}
        n = len(self.request_id)
        for name in self._COLUMNS[1:]:
            if len(getattr(self, name)) != n:
                raise ValueError(f"ragged request table: {name} has "
                                 f"{len(getattr(self, name))} rows, ids {n}")
        # The same guards ServeRequest.__post_init__ applies per object,
        # vectorized over the stream.
        if n and (not np.all(np.isfinite(self.arrival_s))
                  or np.any(self.arrival_s < 0)):
            raise ValueError("arrival_s must be finite and >= 0")
        if np.any(self.prompt_tokens < 1):
            raise ValueError("prompt_tokens must be finite and >= 1")
        if np.any(self.output_tokens < 1):
            raise ValueError("output_tokens must be finite and >= 1")
        if np.any(self.tenant_id < 0):
            raise ValueError("tenant_id must be >= 0")
        ids = self.request_id
        if not np.all(ids[1:] > ids[:-1]):
            order = np.argsort(ids, kind="stable")
            for name in self._COLUMNS:
                setattr(self, name, getattr(self, name)[order])
            ids = self.request_id
            if not np.all(ids[1:] > ids[:-1]):
                raise ValueError("request ids must be unique")

    def __len__(self) -> int:
        return len(self.request_id)

    def request(self, index: int) -> ServeRequest:
        """Materialize row ``index`` as a value-equal ServeRequest."""
        return ServeRequest(
            request_id=int(self.request_id[index]),
            arrival_s=float(self.arrival_s[index]),
            prompt_tokens=int(self.prompt_tokens[index]),
            output_tokens=int(self.output_tokens[index]),
            priority=int(self.priority[index]),
            tenant_id=int(self.tenant_id[index]))

    def __getitem__(self, index: int) -> ServeRequest:
        if isinstance(index, slice):
            raise TypeError("RequestTable does not support slicing")
        n = len(self.request_id)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("request table index out of range")
        return self.request(index)

    def scalar_columns(self) -> ScalarColumns:
        """Id, arrival, prompt, output and tenant columns as ``array``
        copies, built once per table.

        Indexing an ``array`` yields a plain Python ``int``/``float``,
        which the per-request hot path needs: numpy scalars are slower
        to index and repr as ``np.float64(...)`` in JSON and digests.
        """
        if self._scalars is None:
            self._scalars = ScalarColumns(*(
                array(code, np.ascontiguousarray(getattr(self, name))
                      .tobytes())
                for code, name in (("q", "request_id"), ("d", "arrival_s"),
                                   ("q", "prompt_tokens"),
                                   ("q", "output_tokens"),
                                   ("q", "tenant_id"))))
        return self._scalars

    def derived(self, key: Hashable, build: Callable[[], object]) -> object:
        """A value computed from this table's columns, built once per
        ``key`` by ``build()``.

        Schedulers keep their per-row columns (prefill costs, the
        admissible mask) here, keyed by what they depend on, so every
        replica of a fleet with the same cost table and KV geometry
        reads one copy.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def arrival_order(self) -> np.ndarray:
        """Row indices sorted by (arrival_s, request_id).

        The order of
        ``sorted(requests, key=lambda r: (r.arrival_s, r.request_id))``
        — lexsort's last key is primary.
        """
        return np.lexsort((self.request_id, self.arrival_s))

    @classmethod
    def from_requests(cls, requests: Sequence[ServeRequest],
                      ) -> "RequestTable":
        """Columnarize an object stream (value-preserving)."""
        return cls(
            request_id=[r.request_id for r in requests],
            arrival_s=[r.arrival_s for r in requests],
            prompt_tokens=[r.prompt_tokens for r in requests],
            output_tokens=[r.output_tokens for r in requests],
            priority=[r.priority for r in requests],
            tenant_id=[r.tenant_id for r in requests])

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> dict:
        return {
            "request_id": self.request_id.tolist(),
            "arrival_s": self.arrival_s.tolist(),
            "prompt_tokens": self.prompt_tokens.tolist(),
            "output_tokens": self.output_tokens.tolist(),
            "priority": self.priority.tolist(),
            "tenant_id": self.tenant_id.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RequestTable":
        from ..state.errors import StateValueError
        from ..state.schema import require
        try:
            return cls(
                request_id=require(state, "request_id", list, "$.requests"),
                arrival_s=require(state, "arrival_s", list, "$.requests"),
                prompt_tokens=require(state, "prompt_tokens", list,
                                      "$.requests"),
                output_tokens=require(state, "output_tokens", list,
                                      "$.requests"),
                priority=require(state, "priority", list, "$.requests"),
                # Lenient: pre-tenancy snapshots have no tenant column.
                tenant_id=state.get("tenant_id"))
        except ValueError as error:
            raise StateValueError(f"$.requests: {error}") from error


class ColumnarOutcomes(Sequence):
    """Completed-request records as columns, in request-id order.

    The outcomes of a :class:`~repro.fleet.report.FleetReport`:
    iteration and indexing materialize :class:`RequestOutcome` records
    on demand, while the report's aggregate math reads the raw columns.
    """

    __slots__ = ("request_id", "arrival_s", "prompt_tokens", "output_tokens",
                 "priority", "tenant_id", "first_token_s", "finish_s",
                 "preemptions")

    def __init__(self, request_id, arrival_s, prompt_tokens, output_tokens,
                 priority, first_token_s, finish_s, preemptions,
                 tenant_id=None) -> None:
        self.request_id = np.asarray(request_id, dtype=np.int64)
        self.arrival_s = np.asarray(arrival_s, dtype=np.float64)
        self.prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
        self.output_tokens = np.asarray(output_tokens, dtype=np.int64)
        self.priority = np.asarray(priority, dtype=np.int64)
        if tenant_id is None:
            tenant_id = np.zeros(len(self.request_id), dtype=np.int64)
        self.tenant_id = np.asarray(tenant_id, dtype=np.int64)
        self.first_token_s = np.asarray(first_token_s, dtype=np.float64)
        self.finish_s = np.asarray(finish_s, dtype=np.float64)
        self.preemptions = np.asarray(preemptions, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.request_id)

    def __getitem__(self, index: int) -> RequestOutcome:
        if isinstance(index, slice):
            raise TypeError("ColumnarOutcomes does not support slicing")
        n = len(self.request_id)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("outcome index out of range")
        return RequestOutcome(
            request=ServeRequest(
                request_id=int(self.request_id[index]),
                arrival_s=float(self.arrival_s[index]),
                prompt_tokens=int(self.prompt_tokens[index]),
                output_tokens=int(self.output_tokens[index]),
                priority=int(self.priority[index]),
                tenant_id=int(self.tenant_id[index])),
            first_token_s=float(self.first_token_s[index]),
            finish_s=float(self.finish_s[index]),
            preemptions=int(self.preemptions[index]))

    def ttft_values(self) -> np.ndarray:
        """Per-request TTFT column (first token - arrival)."""
        return self.first_token_s - self.arrival_s

    def e2e_values(self) -> np.ndarray:
        """Per-request end-to-end latency column (finish - arrival)."""
        return self.finish_s - self.arrival_s

    @classmethod
    def finished(cls, table: RequestTable,
                 log: OutcomeLog) -> "ColumnarOutcomes":
        """The finished rows of a run, in request-id order."""
        rows = log.finished_rows()
        return cls(
            request_id=table.request_id[rows],
            arrival_s=table.arrival_s[rows],
            prompt_tokens=table.prompt_tokens[rows],
            output_tokens=table.output_tokens[rows],
            priority=table.priority[rows],
            tenant_id=table.tenant_id[rows],
            first_token_s=np.frombuffer(log.first_token_s,
                                        dtype=np.float64)[rows],
            finish_s=np.frombuffer(log.finish_s, dtype=np.float64)[rows],
            preemptions=np.frombuffer(log.preemptions,
                                      dtype=np.int64)[rows])


class ShedLog(Sequence):
    """The run's shed ledger: rows that left the fleet unserved.

    Appended by row during the run; indexing and iteration build
    :class:`~repro.faults.resilience.ShedRequest` records on demand,
    in shed order.
    """

    __slots__ = ("table", "_entries")

    def __init__(self, table: RequestTable) -> None:
        self.table = table
        # (row, time_s, reason, attempts), in shed order.
        self._entries: list[tuple[int, float, str, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> ShedRequest:
        if isinstance(index, slice):
            raise TypeError("ShedLog does not support slicing")
        row, time_s, reason, attempts = self._entries[index]
        return ShedRequest(request=self.table[row], time_s=time_s,
                           reason=reason, attempts=attempts)

    def append(self, row: int, time_s: float, reason: str,
               attempts: int) -> None:
        self._entries.append((row, time_s, reason, attempts))

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> list[dict]:
        return [{"row": row, "time_s": time_s, "reason": reason,
                 "attempts": attempts}
                for row, time_s, reason, attempts in self._entries]

    @classmethod
    def from_state(cls, entries: list, table: RequestTable) -> "ShedLog":
        from ..state.errors import StateIntegrityError
        from ..state.schema import require, require_finite
        log = cls(table)
        for entry in entries:
            row = require(entry, "row", int, "$.fleet.chaos.shed")
            reason = require(entry, "reason", str, "$.fleet.chaos.shed")
            attempts = require(entry, "attempts", int, "$.fleet.chaos.shed")
            if not 0 <= row < len(table) or reason not in SHED_REASONS \
                    or attempts < 0:
                raise StateIntegrityError(
                    f"invalid shed entry {entry!r} for {len(table)} requests")
            log.append(row, require_finite(entry, "time_s",
                                           "$.fleet.chaos.shed"),
                       reason, attempts)
        return log
