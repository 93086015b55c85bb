"""Continuous-batching serving simulation.

The paper's GPU experiments run vLLM, whose scheduler forms decode
batches dynamically from an arriving request stream and manages KV
memory in pages, preempting (and recomputing) requests when blocks run
out.  This module implements that serving loop over the repository's
substrates: admission and preemption run against paged KV memory, and
step durations come from the same TEE-aware cost model as every other
experiment — so serving SLAs (TTFT, end-to-end latency) can be compared
across bare metal, TDX, and (c)GPU deployments.

Requests are rows.  A scheduler is bound to the run's request table
(:class:`~repro.fleet.table.RequestTable`, rows in request-id order)
and to one run-wide :class:`OutcomeLog`; its waiting queue, running
batch, tenancy bookkeeping and every return value name requests by
row, and admission, preemption and finish write straight into the
log's columns.  A fleet binds all its replicas to the same table and
log, so no request object exists between ``begin_run`` and the report.
The running batch is one insertion-ordered dict, and the paged KV
cache collapses to a free-block *count* — block identities never
influence scheduling, only availability does.  Live state stays
O(in-flight), so one fleet run can push a million requests.

Decode is event-driven.  Every sequence still in the batch after a
decode step has gained exactly one token, so one step counter stands in
for every sequence's progress: a sequence admitted at step ``start``
with ``kvlen`` KV tokens has generated ``steps - start`` tokens and
holds ``ceil((kvlen + generated) / block_size)`` blocks.  Admission
indexes the two per-sequence events in advance — the steps at which the
next token crosses a block edge (a residue of the step counter modulo
``block_size``) and the step at which the sequence finishes — so a
decode step costs O(its events), not O(batch).  Between two events
(a finish, a step short of blocks, an arrival, the horizon) the batch
and the per-bucket step cost are fixed, so a whole run of steps is one
loop over locals.  A step that needs more blocks than are free may
preempt; it falls back to the exact per-sequence loop and rebuilds the
index afterwards.  The independent reference is ``repro.validate``'s
``serving.legacy_loop_parity`` check: a frozen transcription of the
original run-to-completion loop over a real
:class:`~repro.llm.kvcache.PagedKVCache`, which ``run()`` must match
bit-for-bit.

The scheduler is *incrementally steppable*: the fleet simulator
(:mod:`repro.fleet`) drives many replicas against a shared clock via
:meth:`ContinuousBatchingScheduler.submit` and
:meth:`ContinuousBatchingScheduler.step`, while :meth:`~
ContinuousBatchingScheduler.run` remains the single-replica
run-to-completion entry point.

Admission policy (head-of-line).  One admission loop serves every
policy.  It admits the first *arrived* request of the waiting queue —
the queue head under FCFS, the first arrived request in virtual-finish
tag order under WFQ — and by default ``break``s when that request's KV
allocation fails, even if a *smaller* request queued behind it would
fit: exactly vLLM's default behavior, which trades utilization for
no-starvation.  Passing ``admission_lookahead=k`` relaxes this: after a
head-of-line allocation failure the loop scans up to ``k`` further
already-arrived requests and admits the first that fits (bounded
out-of-order admission; the head request keeps its queue position).
The only policy difference inside the scan is an unarrived candidate:
it ends the scan under FCFS (nothing behind it has arrived) and is
skipped under WFQ.  The KV take is one function per isolation mode,
chosen once when the scheduler is built.

Multi-tenancy.  Passing a :class:`~repro.serving.admission.TenancyConfig`
arms per-tenant policy: weighted-fair-queueing admission (SCFQ virtual
finish tags; see :mod:`repro.serving.admission`) and per-tenant KV
isolation (hard partition via admission-time worst-case reservation, or
cross-request shared-prefix pinning with hit/miss accounting).  With no
config the scheduler is FCFS over one shared pool, so unarmed runs stay
bit-identical to earlier releases.
"""

from __future__ import annotations

import math
from array import array
from bisect import insort
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .. import guards
from ..engine.placement import Deployment
from ..llm.config import ModelConfig
from ..llm.datatypes import DType
from .admission import TenancyConfig
from .stepcost import _CONTEXT_GRID, _UNITS_PER_S, StepCostTable

if TYPE_CHECKING:
    from ..fleet.table import RequestTable


@dataclass(frozen=True)
class ServeRequest:
    """One request in the arrival stream.

    ``priority`` orders graceful degradation: when a degraded fleet must
    shed load (:mod:`repro.faults`), lower-priority requests go first.
    It does not affect scheduling order on a healthy fleet.

    ``tenant_id`` attributes the request to a tenant for fair-share
    admission, KV isolation and billing (0 = the anonymous default
    tenant, preserving pre-tenancy behavior).
    """

    request_id: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    priority: int = 0
    tenant_id: int = 0

    def __post_init__(self) -> None:
        guards.finite("arrival_s", self.arrival_s, ge=0)
        # Refused, not truncated: a table stores these as int64, and a
        # 3.7-token prompt would be served (and costed) as 3 tokens.
        for field_name in ("request_id", "prompt_tokens", "output_tokens",
                           "priority", "tenant_id"):
            guards.whole(field_name, getattr(self, field_name))
        for field_name in ("prompt_tokens", "output_tokens"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be finite and >= 1")
        if self.tenant_id < 0:
            raise ValueError("tenant_id must be finite and >= 0")


@dataclass
class RequestOutcome:
    """Lifecycle record of one served request."""

    request: ServeRequest
    first_token_s: float = 0.0
    finish_s: float = 0.0
    preemptions: int = 0

    @property
    def ttft_s(self) -> float:
        """Time to first token (queueing + prefill)."""
        return self.first_token_s - self.request.arrival_s

    @property
    def e2e_s(self) -> float:
        """End-to-end latency."""
        return self.finish_s - self.request.arrival_s


class OutcomeLog:
    """Run-wide outcome columns, one slot per row of the run's table.

    Schedulers bound to a run write first-token, finish and preemption
    values here by row, and mark each row's lifecycle in ``status``:
    ``IDLE`` (never submitted, or withdrawn by a cancel or crash),
    ``IN_FLIGHT`` (queued or running on some replica) or ``FINISHED``.
    A submission resets the row's three values, so a retried request
    reports its final attempt only.
    """

    IDLE, IN_FLIGHT, FINISHED = 0, 1, 2

    __slots__ = ("first_token_s", "finish_s", "preemptions", "status")

    def __init__(self, size: int) -> None:
        self.first_token_s = array("d", bytes(8 * size))
        self.finish_s = array("d", bytes(8 * size))
        self.preemptions = array("q", bytes(8 * size))
        self.status = bytearray(size)

    def __len__(self) -> int:
        return len(self.status)

    def finished_rows(self) -> np.ndarray:
        """Rows that finished, ascending (request-id order)."""
        return np.flatnonzero(np.frombuffer(self.status, dtype=np.uint8)
                              == self.FINISHED)

    def max_finish_s(self) -> float | None:
        """Latest completion recorded, if any (the run's end time)."""
        rows = self.finished_rows()
        if not len(rows):
            return None
        return float(np.max(np.frombuffer(self.finish_s,
                                          dtype=np.float64)[rows]))

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> dict:
        """Every column, plus the finished rows; in-flight rows are
        re-marked by the schedulers that hold them on restore."""
        return {
            "first_token_s": list(self.first_token_s),
            "finish_s": list(self.finish_s),
            "preemptions": list(self.preemptions),
            "finished": self.finished_rows().tolist(),
        }

    @classmethod
    def from_state(cls, state: dict, size: int) -> "OutcomeLog":
        from ..state.errors import StateIntegrityError
        from ..state.schema import require
        columns = [require(state, key, list, "$.outcomes")
                   for key in ("first_token_s", "finish_s", "preemptions")]
        if any(len(column) != size for column in columns):
            raise StateIntegrityError(
                f"outcome columns do not match the {size}-row request table")
        log = cls(0)
        log.first_token_s = array("d", (float(v) for v in columns[0]))
        log.finish_s = array("d", (float(v) for v in columns[1]))
        log.preemptions = array("q", (int(v) for v in columns[2]))
        log.status = bytearray(size)
        for row in require(state, "finished", list, "$.outcomes"):
            if not isinstance(row, int) or not 0 <= row < size:
                raise StateIntegrityError(
                    f"finished row {row!r} out of range for {size} requests")
            log.status[row] = cls.FINISHED
        return log


#: Hot-path copies of the log's status codes.
_IN_FLIGHT, _FINISHED = OutcomeLog.IN_FLIGHT, OutcomeLog.FINISHED


@dataclass(frozen=True)
class ServingReport:
    """Aggregate serving metrics.

    Attributes:
        outcomes: Per-request lifecycle records, in request-id order.
        start_s: When serving work first existed — the earliest arrival.
            The wall-clock timeline of the outcomes is absolute, so the
            serving window is ``[start_s, start_s + makespan_s]``.
        makespan_s: Busy window from the first arrival to the last
            completion.  Measuring from the first *arrival* (not from
            clock 0) keeps throughput honest when the stream starts
            late: idle lead time before any work exists is not
            serving time.
        total_preemptions: Preempt-and-recompute events across the run.
        mean_batch_occupancy: Mean decode-batch size over all steps.
    """

    outcomes: tuple[RequestOutcome, ...]
    makespan_s: float
    total_preemptions: int
    mean_batch_occupancy: float
    start_s: float = 0.0

    @property
    def end_s(self) -> float:
        """Absolute completion time of the last request."""
        return self.start_s + self.makespan_s

    @property
    def throughput_tok_s(self) -> float:
        tokens = sum(o.request.output_tokens for o in self.outcomes)
        return tokens / self.makespan_s if self.makespan_s else 0.0

    def ttft_percentile(self, percentile: float) -> float:
        return _percentile([o.ttft_s for o in self.outcomes], percentile)

    def e2e_percentile(self, percentile: float) -> float:
        return _percentile([o.e2e_s for o in self.outcomes], percentile)


def _percentile(values: Sequence[float] | np.ndarray,
                percentile: float) -> float:
    """Linearly interpolated percentile (numpy's default method).

    Nearest-rank rounding returns an endpoint for the median of two
    values, skewing small-sample TTFT/e2e percentiles; interpolation
    matches ``numpy.percentile`` exactly.  Takes a list or an ndarray
    (the fleet and tenancy reports pass raw outcome columns) and
    returns a Python float.
    """
    if not len(values):
        raise ValueError("no values")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = percentile / 100.0 * (ordered.size - 1)
    lower = int(math.floor(rank))
    upper = min(lower + 1, ordered.size - 1)
    fraction = rank - lower
    return float(ordered[lower] + (ordered[upper] - ordered[lower])
                 * fraction)


class ContinuousBatchingScheduler:
    """vLLM-style continuous batching over a paged KV pool.

    The scheduler is a state machine over (waiting, running, clock):
    :meth:`submit` enqueues requests, :meth:`step` advances the
    admission/decode/preemption loop up to a time horizon (the fleet
    simulator's shared-clock contract), and :meth:`run` serves a whole
    stream to completion in one call.  When KV blocks run out during
    decode the youngest sequence is preempted and later recomputed from
    scratch, as vLLM does.

    Args:
        deployment: Where the model serves (any backend).
        model: Served architecture.
        dtype: Serving datatype.
        kv_capacity_tokens: Total KV pool size in tokens.
        block_size: Paged-KV block granularity in tokens.
        max_batch: Scheduler cap on concurrent sequences.
        admission_lookahead: How many queued, already-arrived requests
            to scan past a head-of-line KV-allocation failure (0 =
            strict FCFS, the vLLM default; see module docstring).
        tenancy: Optional multi-tenant policy (WFQ admission and/or KV
            isolation); ``None`` keeps the pre-tenancy behavior exactly.
    """

    def __init__(self, deployment: Deployment, model: ModelConfig,
                 dtype: DType, kv_capacity_tokens: int = 65536,
                 block_size: int = 16, max_batch: int = 64,
                 admission_lookahead: int = 0,
                 tenancy: TenancyConfig | None = None) -> None:
        # A NaN batch cap admits nothing, ever, a NaN lookahead window is
        # unbounded, and decode indexes block edges by ``step % block_size``.
        guards.count("max_batch", max_batch, ge=1)
        guards.count("block_size", block_size, ge=1)
        guards.finite("kv_capacity_tokens", kv_capacity_tokens, ge=block_size)
        guards.count("admission_lookahead", admission_lookahead, ge=0)
        self.deployment = deployment
        self.model = model
        self.dtype = dtype
        self.max_batch = max_batch
        self.block_size = block_size
        self.admission_lookahead = admission_lookahead
        self.tenancy = tenancy
        self.admission = tenancy.admission if tenancy else "fcfs"
        self.kv_isolation = tenancy.kv_isolation if tenancy else "shared"
        self._wfq = self.admission == "wfq"
        # Unbound, so the scheduler holds no reference cycle to itself.
        cls = ContinuousBatchingScheduler
        self._take = {"shared": cls._take_shared,
                      "partition": cls._take_partition,
                      "shared-prefix": cls._take_prefix}[self.kv_isolation]
        self.num_blocks = max(1, kv_capacity_tokens // block_size)
        self._pool_tokens = self.num_blocks * block_size
        # Pinned shared prefixes are never released, so under
        # shared-prefix isolation a request must fit in the room left
        # beside all of them (the whole pool under other modes).
        pinned = (sum(-(-tokens // block_size)
                      for _, tokens in tenancy.prefix_tokens)
                  if self.kv_isolation == "shared-prefix" else 0)
        self._room_tokens = (self.num_blocks - pinned) * block_size
        self._costs = StepCostTable.shared(deployment, model, dtype)
        self._time_scale = 1.0
        # The last decode run's step cost: (batch, context //
        # _CONTEXT_GRID, time scale, scaled seconds).  A pure function of
        # its key for this cost table, so it never goes stale.
        self._step_memo: tuple[int, int, float, float] = (0, -1, 1.0, 0.0)
        #: The run this scheduler serves (see :meth:`bind`); unbound, it
        #: holds no rows.
        self.table: RequestTable | None = None
        self.outcomes: OutcomeLog | None = None
        self._ids = self._arrival = self._prompt = self._output = ()
        self._tenant = self._first = self._finish = self._preempt = ()
        # Per-row columns of the bound run (see :meth:`bind`).
        self._prefill = self._row_units = ()
        self._admissible = bytearray()
        self._status = bytearray()
        self._reset()

    def _reset(self) -> None:
        # Waiting queue: (arrival_s, row) tuples under FCFS, (wfq_tag,
        # arrival_s, row) under WFQ — either way the row is entry[-1]
        # and the arrival entry[-2].  Rows are in request-id order, so
        # ties break on request id.  Sorted, except that FCFS
        # preemptions re-enter at the head.  The logical queue is
        # ``_waiting[_head:]``: admission pops the head by advancing
        # ``_head`` and compacts the dead prefix once it passes half
        # the list.  Invariant: ``2 * _head <= len(_waiting)``, so the
        # list is empty exactly when the logical queue is.
        self._waiting: list[tuple] = []
        self._head = 0
        # Whether the logical queue is known to be sorted: cleared by
        # an FCFS re-entry at the head that sorts after the old head,
        # set again when the queue empties.  While it holds, an entry
        # that sorts at or after the tail is appended, which is where
        # ``insort`` would put it.
        self._sorted = True
        # Prefill of the logical queue, exactly: the sum of each entry's
        # prefill in units of 2**-1074 s, kept at every insert and
        # removal.  ``_queued_s`` is the correctly rounded seconds (the
        # ``math.fsum`` of the queue's prefills) of the total object
        # ``_queued_at``: every update makes a new int, so an identity
        # test tells the estimate when to divide again.
        self._queued_units = 0
        self._queued_at = 0
        self._queued_s = 0.0
        # Running batch: row -> (prompt, output, kvlen, start), in
        # admission order (dict order), so the youngest sequence is the
        # last item.  ``kvlen`` is the KV length the sequence was
        # admitted with — the prompt, or just the suffix under
        # shared-prefix isolation — and ``start`` the decode step it
        # was admitted at.
        self._running: dict[int, tuple[int, int, int, int]] = {}
        # Decode steps taken; a running sequence has generated
        # ``_steps - start`` tokens.  ``_res_count[r]`` counts running
        # sequences whose next token crosses a block edge at steps
        # ``s % block_size == r``; ``_finish_at[s]`` lists, in batch
        # order, the sequences whose last token is decoded at step s.
        # ``_finish_steps`` is a heap holding every key of
        # ``_finish_at``, plus keys a withdrawal emptied, which are
        # dropped when they surface.
        self._steps = 0
        self._res_count = [0] * self.block_size
        self._finish_at: dict[int, list[int]] = {}
        self._finish_steps: list[int] = []
        self._free_blocks = self.num_blocks
        self._ctx_total = 0               # sum(prompt + generated) over batch
        self._clock = 0.0
        self._preemptions = 0
        self._occ_sum = 0
        self._occ_count = 0
        self._first_arrival: float | None = None
        # Tenancy runtime state (inert when unarmed), keyed by row or
        # tenant id.
        self._wfq_v = 0.0
        self._wfq_fin: dict[int, float] = {}
        self._wfq_tag: dict[int, float] = {}
        # Earliest arrival in the WFQ waiting queue, or None when it
        # must be rescanned: kept as a min at every insert, dropped
        # when a removal takes an entry carrying it.
        self._wfq_next: float | None = None
        self._prefix_resident: dict[int, int] = {}
        self._prefix_hits = 0
        self._prefix_misses = 0
        self._kv_reserved: dict[int, tuple[int, int]] = {}
        if self.tenancy is not None and self.kv_isolation == "partition":
            self._tenant_budget_cap = self.tenancy.partition_budgets(
                self.num_blocks)
            self._tenant_budget = dict(self._tenant_budget_cap)
        else:
            self._tenant_budget_cap = {}
            self._tenant_budget = {}

    def bind(self, table: RequestTable,
             outcomes: OutcomeLog | None = None) -> None:
        """Attach the scheduler to a run's request table and outcome log.

        Every later call names requests by row of ``table`` (a
        :class:`~repro.fleet.table.RequestTable`), and admission,
        preemption and finish write into ``outcomes`` — a fresh
        :class:`OutcomeLog` when omitted.  A fleet binds all its
        replicas to one table and one log.  The hot-path columns are
        the table's ``array`` copies, so every read is a plain Python
        scalar.

        Binding also decides, once per row, what submit and admission
        would otherwise compute per call: each row's prefill seconds
        and exact prefill units (:meth:`StepCostTable.row_prefill`)
        and whether the row can ever fit this KV geometry
        (:meth:`admissible`).  The table keeps them, so replicas that
        share a cost table and geometry share one copy.

        Raises:
            ValueError: If work is still in flight here, or the log
                does not match the table.
        """
        if self._waiting or self._running:
            raise ValueError("cannot rebind a scheduler with work in flight")
        if outcomes is None:
            outcomes = OutcomeLog(len(table))
        elif len(outcomes) != len(table):
            raise ValueError("outcome log and request table differ in size")
        self.table = table
        self.outcomes = outcomes
        (self._ids, self._arrival, self._prompt, self._output,
         self._tenant) = table.scalar_columns()
        self._first = outcomes.first_token_s
        self._finish = outcomes.finish_s
        self._preempt = outcomes.preemptions
        self._status = outcomes.status
        costs = self._costs
        self._prefill, self._row_units = table.derived(
            ("prefill", costs),
            lambda: costs.row_prefill(table.prompt_tokens))
        self._admissible = self.admissible(table)

    # -- introspection --------------------------------------------------------

    @property
    def clock_s(self) -> float:
        """The replica's local wall clock."""
        return self._clock

    @property
    def outstanding(self) -> int:
        """Requests admitted or queued but not yet finished."""
        return len(self._waiting) - self._head + len(self._running)

    @property
    def queue_depth(self) -> int:
        """Requests waiting for admission."""
        return len(self._waiting) - self._head

    @property
    def kv_free_fraction(self) -> float:
        """Fraction of the KV block pool currently free."""
        return self._free_blocks / self.num_blocks

    @property
    def idle(self) -> bool:
        """No admitted or queued work."""
        return not self._waiting and not self._running

    @property
    def preemptions(self) -> int:
        """Preempt-and-recompute events so far."""
        return self._preemptions

    def advance_clock_to(self, now_s: float) -> None:
        """Move the local clock forward to ``now_s`` (never backward).

        The fleet uses this to floor a freshly booted replica's clock at
        its readiness time so held-back requests cannot be served in
        the past (and to skip a hung replica's stall window); it never
        rewinds time.
        """
        if math.isfinite(now_s):
            self._clock = max(self._clock, now_s)

    @property
    def time_scale(self) -> float:
        """Wall-time multiplier on every step (1.0 = nominal speed)."""
        return self._time_scale

    @time_scale.setter
    def time_scale(self, scale: float) -> None:
        """Set the step-duration multiplier (fault-injection hook).

        A degraded replica (``repro.faults`` slowdown or interconnect
        cut) runs every prefill/decode step ``scale`` times slower.  The
        nominal value 1.0 is applied via an exact no-op so fault-free
        runs stay bit-identical.
        """
        guards.finite("time_scale", scale, gt=0)
        self._time_scale = scale

    def _scaled(self, step_s: float) -> float:
        # Guarded so the nominal path performs no float op at all.
        if self._time_scale != 1.0:
            return step_s * self._time_scale
        return step_s

    # -- admission ------------------------------------------------------------

    def _check_fits(self, row: int) -> None:
        """Raise for a row that can never fit this replica's KV geometry.

        The per-row verdict that :meth:`_fits_column` computes for a
        whole table at bind; :meth:`submit` calls this only for a row
        that column refuses, to raise with the reason.
        """
        needed = self._prompt[row] + self._output[row]
        if needed > self._pool_tokens:
            raise ValueError(
                f"request {self._ids[row]} needs {needed} KV tokens, "
                f"pool holds {self._pool_tokens}")
        if self.kv_isolation == "partition":
            tenant_id = self._tenant[row]
            cap = self._tenant_budget_cap.get(tenant_id)
            if cap is None:
                raise ValueError(
                    f"tenant {tenant_id} has no KV partition on this replica")
            worst_case = -(-needed // self.block_size)
            if worst_case > cap:
                raise ValueError(
                    f"request {self._ids[row]} needs {worst_case} blocks, "
                    f"tenant {tenant_id} partition holds {cap}")
        elif needed > self._room_tokens:
            # Shared-prefix isolation: the whole request does not fit
            # beside every pin.  It holds only its suffix (the whole
            # prompt if its tenant shares no prefix) plus its output; if
            # even that does not fit it would preempt itself forever.
            prompt = self._prompt[row]
            usable = min(self.tenancy.prefix_of(self._tenant[row]),
                         prompt - 1)
            kvlen = prompt - usable if usable > 0 else prompt
            blocks = -(-(kvlen + self._output[row]) // self.block_size)
            room = self._room_tokens // self.block_size
            if blocks > room:
                raise ValueError(
                    f"request {self._ids[row]} needs {blocks} blocks, "
                    f"pool holds {room} beside every pinned prefix")

    def admissible(self, table: RequestTable) -> bytearray:
        """Per row of ``table``, 1 if the row can ever fit this
        scheduler's KV geometry and 0 if :meth:`submit` would refuse it.

        Built once per table and geometry (pool, block size, isolation
        mode and, unless the pool is plainly shared, the tenancy
        config) and kept by the table; schedulers need not be bound.
        """
        return table.derived(
            ("admissible", self.num_blocks, self.block_size,
             self.kv_isolation,
             None if self.kv_isolation == "shared" else self.tenancy),
            lambda: self._fits_column(table))

    def _fits_column(self, table: RequestTable) -> bytearray:
        """:meth:`_check_fits`'s verdict for every row of ``table``.

        Checks the pool, the tenant's partition cap and, under
        shared-prefix isolation, the room beside every prefix the
        tenancy config can pin, with numpy over the table.
        """
        prompt = table.prompt_tokens
        output = table.output_tokens
        needed = prompt + output
        block = self.block_size
        fits = needed <= self._pool_tokens
        if self.kv_isolation != "shared":
            tenants = table.tenant_id.tolist()
            if self.kv_isolation == "partition":
                caps = self._tenant_budget_cap
                # A tenant without a partition fits nothing (-1 blocks).
                cap = np.array([caps.get(tenant, -1) for tenant in tenants],
                               dtype=np.int64)
                fits &= -(-needed // block) <= cap
            else:
                prefix = np.array([self.tenancy.prefix_of(tenant)
                                   for tenant in tenants], dtype=np.int64)
                usable = np.minimum(prefix, prompt - 1)
                kvlen = np.where(usable > 0, prompt - usable, prompt)
                blocks = -(-(kvlen + output) // block)
                fits &= ((needed <= self._room_tokens)
                         | (blocks <= self._room_tokens // block))
        return bytearray(fits.astype(np.uint8).tobytes())

    def submit(self, row: int) -> None:
        """Enqueue one row of the bound table for service: a one-row
        :meth:`submit_rows`."""
        self.submit_rows((row,))

    def submit_rows(self, rows: Iterable[int]) -> None:
        """Enqueue rows of the bound table for service, in order.

        Leaves the scheduler exactly as calling :meth:`submit` on each
        row in turn would: each entry is placed where ``insort(...,
        lo=_head)`` puts it on the queue as it then is (appended when
        it sorts at or after the tail of a queue known to be sorted),
        and under WFQ each row's tag chains on its tenant's previous
        one.  Resets each row's outcome values, so a resubmitted
        request reports its final attempt.

        Raises:
            ValueError: At the first row that cannot ever fit the KV
                pool or is already in flight or finished (an earlier
                row of ``rows`` included).  The rows before it stay
                queued, as the per-row submits before a refused one
                would have left them.
        """
        admissible = self._admissible
        status = self._status
        first = self._first
        finish = self._finish
        preempt = self._preempt
        arrivals = self._arrival
        units = self._row_units
        waiting = self._waiting
        wfq = self._wfq
        ordered = self._sorted
        queued = self._queued_units
        earliest = self._first_arrival
        try:
            for row in rows:
                if not admissible[row]:
                    self._check_fits(row)
                if status[row]:
                    raise ValueError(
                        f"request {self._ids[row]} already submitted")
                status[row] = _IN_FLIGHT
                first[row] = 0.0
                finish[row] = 0.0
                preempt[row] = 0
                arrival = arrivals[row]
                if wfq:
                    # SCFQ tag: chain on the tenant's previous virtual
                    # finish, floored at the global virtual clock.
                    tenant_id = self._tenant[row]
                    start = max(self._wfq_fin.get(tenant_id, 0.0),
                                self._wfq_v)
                    tag = start + ((self._prompt[row] + self._output[row])
                                   / self.tenancy.weight_of(tenant_id))
                    self._wfq_fin[tenant_id] = tag
                    self._wfq_tag[row] = tag
                    entry: tuple = (tag, arrival, row)
                    self._wfq_enqueued(arrival)
                else:
                    entry = (arrival, row)
                if not waiting:
                    waiting.append(entry)
                    ordered = True
                elif ordered and entry >= waiting[-1]:
                    waiting.append(entry)
                else:
                    # lo=_head probes the same midpoints as insort on
                    # the logical queue, so placement matches even when
                    # an FCFS preemption has left the queue unsorted.
                    insort(waiting, entry, lo=self._head)
                queued += units[row]
                if earliest is None or arrival < earliest:
                    earliest = arrival
        finally:
            self._sorted = ordered
            self._queued_units = queued
            self._first_arrival = earliest

    def _wfq_enqueued(self, arrival: float) -> None:
        """Fold an arrival about to enter the WFQ queue into the cached
        earliest arrival (call before the insert)."""
        earliest = self._wfq_next
        if earliest is not None:
            if arrival < earliest:
                self._wfq_next = arrival
        elif not self._waiting:
            self._wfq_next = arrival

    def _wfq_dequeued(self, arrival: float) -> None:
        """An entry left the WFQ queue: rescan if it was the earliest."""
        if arrival == self._wfq_next:
            self._wfq_next = None

    def _forget(self, row: int) -> None:
        """Withdraw a row: it is no longer in flight here."""
        self._wfq_tag.pop(row, None)
        self._status[row] = OutcomeLog.IDLE

    def _compact_waiting(self) -> None:
        """Drop the dead prefix so ``_waiting`` is the logical queue."""
        if self._head:
            del self._waiting[:self._head]
            self._head = 0

    def _release_reserve(self, row: int) -> None:
        """Return a partition-mode worst-case reservation, if any."""
        reserved = self._kv_reserved.pop(row, None)
        if reserved is not None:
            tenant_id, blocks = reserved
            self._tenant_budget[tenant_id] += blocks

    def cancel(self, row: int) -> int | None:
        """Withdraw an unfinished request (fleet timeout/retry hook).

        Removes the row from the waiting queue or the running batch,
        frees its KV blocks and marks it idle, so the fleet may
        resubmit it here or elsewhere.  Finished or unknown rows are
        left untouched.

        Returns:
            The tokens the cancelled attempt had generated (the work
            wasted by the cancellation), or ``None`` if the row is not
            in flight here.
        """
        self._compact_waiting()
        for index, entry in enumerate(self._waiting):
            if entry[-1] == row:
                self._waiting.pop(index)
                self._queued_units -= self._row_units[row]
                if self._wfq:
                    self._wfq_dequeued(entry[-2])
                self._forget(row)
                return 0
        if row in self._running:
            generated = self._drop_running(row)
            self._forget(row)
            return generated
        return None

    def evacuate(self) -> list[tuple[int, int]]:
        """Abort all in-flight work (replica crash hook).

        Empties the waiting queue and the running batch, freeing every
        KV allocation, and marks the evacuated rows idle (finished rows
        keep their outcomes).  The fleet requeues the evacuated rows
        elsewhere; tokens already generated by the running batch are
        lost and reported as wasted work.

        Returns:
            ``(row, tokens_generated)`` pairs in deterministic order:
            waiting queue first, then the running batch.
        """
        self._compact_waiting()
        evacuated = [(entry[-1], 0) for entry in self._waiting]
        for row in list(self._running):
            evacuated.append((row, self._drop_running(row)))
        self._waiting.clear()
        self._finish_steps.clear()
        self._sorted = True
        self._queued_units = 0
        self._wfq_next = None
        for row, _ in evacuated:
            self._forget(row)
        # A crashed replica loses its pinned shared prefixes too.
        for blocks in self._prefix_resident.values():
            self._free_blocks += blocks
        self._prefix_resident.clear()
        return evacuated

    def _drop_running(self, row: int) -> int:
        """Withdraw an unfinished running sequence: free its KV and
        unindex its events.  Returns the tokens it had generated."""
        prompt, output, kvlen, start = self._running.pop(row)
        generated = self._steps - start
        self._free_blocks += -(-(kvlen + generated) // self.block_size)
        self._release_reserve(row)
        self._ctx_total -= prompt + generated
        self._res_count[(start - kvlen) % self.block_size] -= 1
        pending = self._finish_at[start + output - 1]
        pending.remove(row)
        if not pending:
            del self._finish_at[start + output - 1]
        return generated

    def _reindex(self) -> None:
        """Rebuild the residue and finish-step indexes from the batch,
        in place (:meth:`step` holds all three for the whole call)."""
        block_size = self.block_size
        res_count = self._res_count
        res_count[:] = [0] * block_size
        finish_at = self._finish_at
        finish_at.clear()
        for row, (_, output, kvlen, start) in self._running.items():
            res_count[(start - kvlen) % block_size] += 1
            finish_at.setdefault(start + output - 1, []).append(row)
        finish_steps = self._finish_steps
        finish_steps[:] = finish_at
        heapify(finish_steps)

    def estimated_ttft_s(self, prompt_tokens: int, now: float,
                         pending_units: int = 0) -> float:
        """Deterministic TTFT estimate for a ``prompt_tokens`` request
        routed here now.

        Counts the replica's clock lead over ``now``, the prefill work
        queued ahead of the request, and the request's own prefill —
        the quantity the cost/SLO-aware router compares against the
        TTFT SLO.  An underestimate under decode contention, but
        monotone in queue depth, which is what routing needs.

        ``pending_units`` is prefill, in 2**-1074 s units
        (:meth:`prefill_units`), that the caller has routed here but
        not yet submitted; the estimate equals the one taken after
        submitting it.

        O(1) in queue depth: the queued prefill is the scheduler's exact
        running total (in 2**-1074 s units), divided out once per change
        with one correctly rounded int division.  It is therefore the
        ``math.fsum`` of the queue's prefills, not a left-to-right
        ``sum`` (the two can differ in the last place).
        """
        if pending_units:
            queued_s = (self._queued_units + pending_units) / _UNITS_PER_S
        else:
            units = self._queued_units
            if units is not self._queued_at:
                self._queued_at = units
                self._queued_s = units / _UNITS_PER_S
            queued_s = self._queued_s
        prefill_s = self._costs.prefill_s(prompt_tokens)
        # ``_scaled`` inlined: the nominal path performs no float op.
        scale = self._time_scale
        if scale != 1.0:
            queued_s *= scale
            prefill_s *= scale
        lead = self._clock - now  # max(0.0, lead), without the call
        backlog = (lead if lead > 0.0 else 0.0) + queued_s
        return backlog + prefill_s

    def prefill_units(self, prompt_tokens: int) -> int:
        """A ``prompt_tokens`` prefill here in 2**-1074 s units: what a
        submitted row of that length adds to the queued prefill."""
        return self._costs.prefill_units(prompt_tokens)

    @property
    def prefix_hits(self) -> int:
        """Admissions that reused a resident shared prefix."""
        return self._prefix_hits

    @property
    def prefix_misses(self) -> int:
        """Admissions that had to pin a tenant's shared prefix."""
        return self._prefix_misses

    # KV takes, one per isolation mode (the constructor binds ``_take``).
    # Each debits the free counter and returns the KV length the request
    # is admitted with, or ``None`` if it does not fit right now.

    def _take_shared(self, row: int) -> int | None:
        """One pool: take the prompt's blocks."""
        prompt = self._prompt[row]
        needed = -(-prompt // self.block_size)
        if needed > self._free_blocks:
            return None
        self._free_blocks -= needed
        return prompt

    def _take_partition(self, row: int) -> int | None:
        """Take the prompt's blocks and debit the tenant's worst-case
        reservation up front, so decode growth can never fail and
        tenants cannot evict each other."""
        prompt = self._prompt[row]
        tenant_id = self._tenant[row]
        reserve = -(-(prompt + self._output[row]) // self.block_size)
        budget = self._tenant_budget[tenant_id]
        if reserve > budget:
            return None
        self._free_blocks -= -(-prompt // self.block_size)
        self._tenant_budget[tenant_id] = budget - reserve
        self._kv_reserved[row] = (tenant_id, reserve)
        return prompt

    def _take_prefix(self, row: int) -> int | None:
        """Pin the tenant's common prefix once and take only the
        suffix's blocks per request."""
        prompt = self._prompt[row]
        tenant_id = self._tenant[row]
        prefix = self.tenancy.prefix_of(tenant_id)
        usable = min(prefix, prompt - 1)
        if usable <= 0:
            return self._take_shared(row)
        suffix = prompt - usable
        needed = -(-suffix // self.block_size)
        if tenant_id in self._prefix_resident:
            if needed > self._free_blocks:
                return None
            self._free_blocks -= needed
            self._prefix_hits += 1
            return suffix
        prefix_blocks = -(-prefix // self.block_size)
        if prefix_blocks + needed > self._free_blocks:
            return None
        self._free_blocks -= prefix_blocks + needed
        self._prefix_resident[tenant_id] = prefix_blocks
        self._prefix_misses += 1
        return suffix

    # -- decode ----------------------------------------------------------------

    def _decode_run(self, stop_s: float) -> list[int]:
        """Decode steps up to the next event; returns finished rows.

        Between events the batch is fixed, so the run loops over plain
        locals: each step takes its block-edge residue count of blocks
        and adds its cost to the clock.  The run stops before a step
        that needs more blocks than are free, and after the next finish
        step or the first step that ends at or past ``stop_s``.  If the
        very first step may preempt, it takes the exact per-sequence
        path instead.
        """
        first = step = self._steps
        free = self._free_blocks
        res_count = self._res_count
        block_size = self.block_size
        need = res_count[step % block_size]
        if need > free:
            return self._decode_exact()
        batch = len(self._running)
        finish_steps = self._finish_steps
        finish_at = self._finish_at
        last = finish_steps[0]
        while last not in finish_at:
            heappop(finish_steps)  # emptied by a withdrawal
            last = finish_steps[0]
        # Every step adds one token per sequence, so step ``j`` of the
        # run has mean context ``(C + j * batch) // batch == base + j``
        # for ``C = _ctx_total``.  Floor division equals the per-step
        # loop's ``int(C / batch)``: while ``C + batch < 2**53`` the
        # true quotient sits at least ``1 / batch`` below the next
        # integer, more than half an ulp of it, so correctly rounded
        # true division never rounds up onto that integer.
        base = self._ctx_total // batch
        decode_step_s = self._costs.decode_step_s
        scale = self._time_scale
        # Reuse the last run's cost while batch, bucket and scale agree.
        memo_batch, bucket, memo_scale, cost = self._step_memo
        if memo_batch != batch or memo_scale != scale:
            bucket = -1
        lookup_at = step
        clock = self._clock
        while True:
            if step == lookup_at:
                # The cost is constant inside a context bucket; look it
                # up again only where the context enters the next one
                # (``_scaled`` inlined).
                context = base + step - first
                if context // _CONTEXT_GRID != bucket:
                    bucket = context // _CONTEXT_GRID
                    cost = decode_step_s(batch, max(1, context))
                    if scale != 1.0:
                        cost *= scale
                lookup_at = step + _CONTEXT_GRID - context % _CONTEXT_GRID
            # One sequential add per step keeps the clock's float
            # sequence exactly the per-step loop's.
            clock += cost
            free -= need
            step += 1
            if step > last or clock >= stop_s:
                break
            need = res_count[step % block_size]
            if need > free:
                break
        taken = step - first
        self._step_memo = (batch, bucket, scale, cost)
        self._clock = clock
        self._steps = step
        ctx_total = self._ctx_total + batch * taken
        self._occ_sum += batch * taken
        self._occ_count += taken
        if step <= last:
            self._free_blocks = free
            self._ctx_total = ctx_total
            return []
        finished = finish_at.pop(last)
        heappop(finish_steps)  # ``last``, still the least
        # A finishing sequence has generated exactly its output.
        running = self._running
        finish = self._finish
        status = self._status
        for row in finished:
            prompt, output, kvlen, start = running.pop(row)
            finish[row] = clock
            status[row] = _FINISHED
            free += -(-(kvlen + output) // block_size)
            ctx_total -= prompt + output
            res_count[(start - kvlen) % block_size] -= 1
        self._free_blocks = free
        self._ctx_total = ctx_total
        if self._kv_reserved:
            for row in finished:
                self._release_reserve(row)
        if self._wfq_tag:
            for row in finished:
                self._wfq_tag.pop(row, None)
        return finished

    def _decode_exact(self) -> list[int]:
        """One decode step, sequence by sequence, preempting on demand.

        Materializes each sequence's generated and held-block counts,
        appends a token per sequence in batch order and, when a block
        edge finds the pool empty, preempts the youngest sequence (vLLM
        recomputes it from scratch on re-admission).  Survivors keep
        their admission step, so the event index is rebuilt from the
        batch afterwards.
        """
        running = self._running
        # The step is charged up front, at the batch's mean context.
        batch_size = len(running)
        mean_context = int(self._ctx_total / batch_size)
        self._occ_sum += batch_size
        self._occ_count += 1
        self._clock += self._scaled(
            self._costs.decode_step_s(batch_size, max(1, mean_context)))
        step = self._steps
        block_size = self.block_size
        # In-loop removals only pop the youngest (the dict's last item),
        # so the live batch is always a prefix of this snapshot and a
        # victim's snapshot index is the batch size after the pop.
        batch = list(running.items())
        run_gen = [step - record[3] for _, record in batch]
        run_blocks = [-(-(record[2] + generated) // block_size)
                      for (_, record), generated in zip(batch, run_gen)]
        preempted: set[int] = set()
        finished: list[tuple[int, int]] = []  # (index, row)

        for index, (row, record) in enumerate(batch):
            if row in preempted:
                continue
            generated = run_gen[index]
            kvlen = record[2]
            appended = False
            while not appended:
                if (kvlen + generated) % block_size == 0:
                    # The next token crosses a block boundary.
                    if self._free_blocks == 0:
                        # Preempt the youngest sequence.
                        victim_row, victim = running.popitem()
                        tail = len(running)
                        self._free_blocks += run_blocks[tail]
                        self._release_reserve(victim_row)
                        self._preempt[victim_row] += 1
                        self._ctx_total -= victim[0] + run_gen[tail]
                        victim_arrival = self._arrival[victim_row]
                        self._queued_units += self._row_units[victim_row]
                        if self._wfq:
                            # The victim keeps its tag: it re-queues at
                            # its original virtual position.
                            self._wfq_enqueued(victim_arrival)
                            insort(self._waiting,
                                   (self._wfq_tag[victim_row],
                                    victim_arrival, victim_row),
                                   lo=self._head)
                        else:
                            entry = (victim_arrival, victim_row)
                            waiting = self._waiting
                            head = self._head
                            # Re-entry at the head unsorts the queue if
                            # the entry sorts after the old head.
                            if head < len(waiting) and entry > waiting[head]:
                                self._sorted = False
                            if head:
                                self._head = head - 1
                                waiting[head - 1] = entry
                            else:
                                waiting.insert(0, entry)
                        preempted.add(victim_row)
                        self._preemptions += 1
                        if victim_row == row:
                            break
                        continue
                    self._free_blocks -= 1
                    run_blocks[index] += 1
                generated += 1
                run_gen[index] = generated
                self._ctx_total += 1
                appended = True
            if not appended:
                continue
            if generated >= record[1]:
                finished.append((index, row))

        self._steps = step + 1
        results: list[int] = []
        for index, row in finished:
            record = running.pop(row, None)
            if record is None:
                # Cannot arise: a finished entry holds its blocks until
                # this cleanup, so it is never chosen as a victim.
                raise RuntimeError("finished entry vanished mid-step")
            self._finish[row] = self._clock
            self._status[row] = OutcomeLog.FINISHED
            self._wfq_tag.pop(row, None)
            self._free_blocks += run_blocks[index]
            self._release_reserve(row)
            self._ctx_total -= record[0] + run_gen[index]
            results.append(row)
        self._reindex()
        return results

    def step(self, until_s: float | None = None) -> list[int]:
        """Advance the serving loop up to a time horizon.

        Repeats admission/decode iterations while work exists and the
        local clock is below ``until_s`` (``None`` = run to completion).
        A decode or prefill step in flight at the horizon completes —
        steps are not preemptible — so the clock may end slightly past
        ``until_s``.  When the replica is idle, the clock jumps to the
        next arrival but never past the horizon (an idle replica's
        clock stays put so later submissions are not delayed).  Decode
        advances a run of steps per iteration, up to the next finish,
        block-edge shortage, arrival or horizon, so every admission
        and horizon check still sees the clock after the same steps.

        Returns:
            Rows that finished during this call (their timelines are in
            the bound :class:`OutcomeLog`).
        """
        finished: list[int] = []
        # Admission and decode mutate the queue, batch and event index
        # in place, so these locals stay bound to the live objects, and
        # nothing else changes the configuration or the time scale
        # before this call returns.
        waiting = self._waiting
        running = self._running
        decode = self._decode_run
        max_batch = self.max_batch
        horizon = math.inf if until_s is None else until_s
        wfq = self._wfq
        take = self._take
        shared = take is ContinuousBatchingScheduler._take_shared
        lookahead = self.admission_lookahead
        block_size = self.block_size
        prefill = self._prefill
        units = self._row_units
        prompts = self._prompt
        outputs = self._output
        first = self._first
        res_count = self._res_count
        finish_at = self._finish_at
        finish_steps = self._finish_steps
        scale = self._time_scale
        while waiting or running:
            if self._clock >= horizon:
                break
            if not running and self._next_arrival_s() > horizon:
                break  # only future work remains in this horizon
            if waiting and len(running) < max_batch:
                # Admit arrived requests while slots and KV blocks
                # allow.  The head of line is the first arrived entry
                # of the logical queue: the queue head under FCFS
                # (arrival order), the first arrived entry in tag order
                # under WFQ.  If the head cannot take its KV blocks, up
                # to ``admission_lookahead`` further arrived entries
                # are tried and the first that fits is admitted; an
                # unarrived candidate ends that scan under FCFS and is
                # skipped, costing no lookahead, under WFQ.
                clock = self._clock
                head = self._head
                start = self._steps
                ctx_total = self._ctx_total
                queued = self._queued_units
                while True:
                    index = head
                    while waiting[index][-2] > clock:
                        index += 1
                        if not wfq or index == len(waiting):
                            index = -1  # nothing has arrived yet
                            break
                    if index < 0:
                        break
                    row = waiting[index][-1]
                    if shared:
                        # ``_take_shared`` inlined: the prompt's blocks.
                        kvlen = prompts[row]
                        needed = -(-kvlen // block_size)
                        if needed > self._free_blocks:
                            kvlen = None
                        else:
                            self._free_blocks -= needed
                    else:
                        kvlen = take(self, row)
                    scanned = 0
                    while kvlen is None:
                        # Head-of-line blocking: scan a bounded window
                        # of arrived requests for one that fits now.
                        index += 1
                        if scanned == lookahead or index == len(waiting):
                            break
                        entry = waiting[index]
                        if entry[-2] > clock:
                            if wfq:
                                continue
                            break
                        scanned += 1
                        row = entry[-1]
                        kvlen = take(self, row)
                    if kvlen is None:
                        break
                    if wfq:
                        self._wfq_dequeued(waiting[index][-2])
                    if index == head:
                        head += 1
                    else:
                        waiting.pop(index)
                    if 2 * head > len(waiting):
                        del waiting[:head]
                        head = 0
                    # Charge prefill (``_scaled`` inlined), take it off
                    # the queued total, move the request into the batch
                    # and index its block-edge residue and finish step.
                    cost = prefill[row]
                    if scale != 1.0:
                        cost *= scale
                    clock += cost
                    first[row] = clock
                    queued -= units[row]
                    prompt = prompts[row]
                    output = outputs[row]
                    running[row] = (prompt, output, kvlen, start)
                    ctx_total += prompt
                    res_count[(start - kvlen) % block_size] += 1
                    last = start + output - 1
                    pending = finish_at.get(last)
                    if pending is None:
                        finish_at[last] = [row]
                        heappush(finish_steps, last)
                    else:
                        pending.append(row)
                    if wfq:
                        tag = self._wfq_tag[row]
                        if tag > self._wfq_v:
                            self._wfq_v = tag
                    if not waiting or len(running) >= max_batch:
                        break
                self._head = head
                self._clock = clock
                self._ctx_total = ctx_total
                self._queued_units = queued
            if not running:
                # Idle until the next arrival.
                arrival = self._next_arrival_s()
                if arrival > self._clock:
                    self._clock = arrival
                continue
            stop_s = horizon
            if waiting and len(running) < max_batch:
                # Admission may act once the next request arrives, and
                # after every step while an arrived one is blocked
                # (FCFS: the head is the next arrival).
                arrival = (self._next_arrival_s() if wfq
                           else waiting[self._head][0])
                if arrival < horizon:
                    stop_s = arrival
            finished += decode(stop_s)
        return finished

    def _next_arrival_s(self) -> float:
        """Earliest arrival among waiting requests.

        Under FCFS the queue is arrival-ordered so the head suffices;
        under WFQ the queue is tag-ordered, so the earliest arrival is
        cached and the queue is scanned only after a removal took it.
        """
        if self._wfq:
            earliest = self._wfq_next
            if earliest is None:
                earliest = self._wfq_next = min(
                    entry[-2] for entry
                    in islice(self._waiting, self._head, None))
            return earliest
        return self._waiting[self._head][0]

    def report(self) -> ServingReport:
        """Aggregate metrics of everything served so far.

        Builds :class:`RequestOutcome` records for every row of the
        bound run that is in flight or finished, in request-id order
        (withdrawn rows excluded).  Meant for a scheduler that serves
        its run alone; a fleet reports through its own log.

        Raises:
            ValueError: If nothing was ever submitted.
        """
        table = self.table
        outcomes = tuple(
            RequestOutcome(request=table[row],
                           first_token_s=self._first[row],
                           finish_s=self._finish[row],
                           preemptions=self._preempt[row])
            for row, state in enumerate(self._status) if state)
        if not outcomes:
            raise ValueError("no requests")
        mean_occupancy = (self._occ_sum / self._occ_count
                          if self._occ_count else 0.0)
        start = self._first_arrival or 0.0
        return ServingReport(outcomes=outcomes,
                             makespan_s=self._clock - start,
                             total_preemptions=self._preemptions,
                             mean_batch_occupancy=mean_occupancy,
                             start_s=start)

    def run(self, requests: Sequence[ServeRequest] | RequestTable,
            ) -> ServingReport:
        """Serve a request stream to completion (single-replica mode).

        Takes a :class:`~repro.fleet.table.RequestTable` or a list of
        :class:`ServeRequest`, which is converted once with
        ``RequestTable.from_requests``; the scheduler is then bound to
        the table and a fresh :class:`OutcomeLog`.

        Raises:
            ValueError: If any single request cannot ever fit the KV
                pool, or an id repeats.
        """
        from ..fleet.table import RequestTable
        if not len(requests):
            raise ValueError("no requests")
        table = (requests if isinstance(requests, RequestTable)
                 else RequestTable.from_requests(requests))
        self._reset()
        self.bind(table)
        # WFQ tags chain per tenant in submission order, so the stream
        # is submitted in arrival order (the order the fleet would
        # deliver it); FCFS queues sort on arrival either way.
        rows = (table.arrival_order().tolist() if self._wfq
                else range(len(table)))
        for row in rows:
            self.submit(row)
        self.step(None)
        return self.report()

    # -- checkpoint/restore ---------------------------------------------------

    def config_fingerprint(self) -> dict:
        """Identity of the scheduler's configuration, for restore checks.

        The runtime state only replays bit-identically on a scheduler
        built from the *same* configuration; the fingerprint lets
        :meth:`from_state` refuse a mismatched host early.
        """
        fingerprint = {
            "model": self.model.name,
            "dtype": self.dtype.name,
            "max_batch": self.max_batch,
            "block_size": self.block_size,
            "admission_lookahead": self.admission_lookahead,
            "num_blocks": self.num_blocks,
        }
        # Key added only when armed: unarmed fingerprints (and thus
        # pre-tenancy snapshots) stay byte-compatible.
        if self.tenancy is not None:
            fingerprint["tenancy"] = self.tenancy.fingerprint()
        return fingerprint

    def to_state(self) -> dict:
        """Plain-dict snapshot of the serving state machine.

        Requests appear as rows of the bound run; their per-request
        values live in the run's table and :class:`OutcomeLog`, which
        the owner snapshots once.  When tenancy is armed the payload
        additionally carries the WFQ virtual clocks, per-tenant budgets
        and shared-prefix residency.
        """
        state = {
            "config": self.config_fingerprint(),
            "clock_s": self._clock,
            "preemptions": self._preemptions,
            "occ_sum": self._occ_sum,
            "occ_count": self._occ_count,
            "first_arrival_s": self._first_arrival,
            "time_scale": self._time_scale,
            "free_blocks": self._free_blocks,
            "waiting": [entry[-1] for entry
                        in islice(self._waiting, self._head, None)],
            "running": [{"row": row,
                         "generated": self._steps - start,
                         "blocks": -(-(kvlen + self._steps - start)
                                     // self.block_size),
                         "kv_tokens": kvlen}
                        for row, (_, _, kvlen, start)
                        in self._running.items()],
        }
        if self.tenancy is not None:
            state["tenancy"] = {
                "wfq_v": self._wfq_v,
                "wfq_fin": {str(tenant_id): fin
                            for tenant_id, fin in self._wfq_fin.items()},
                "wfq_tags": {str(row): tag
                             for row, tag in self._wfq_tag.items()},
                "tenant_budget": {str(tenant_id): budget
                                  for tenant_id, budget
                                  in self._tenant_budget.items()},
                "reserved": {str(row): [tenant_id, blocks]
                             for row, (tenant_id, blocks)
                             in self._kv_reserved.items()},
                "prefix_resident": {str(tenant_id): blocks
                                    for tenant_id, blocks
                                    in self._prefix_resident.items()},
                "prefix_hits": self._prefix_hits,
                "prefix_misses": self._prefix_misses,
            }
        return state

    def from_state(self, state: dict) -> None:
        """Install a :meth:`to_state` snapshot into this scheduler.

        The scheduler must already be bound to the snapshot's run (its
        table and restored :class:`OutcomeLog`); the rows it holds are
        marked in flight there.

        Raises:
            repro.state.errors.StateIntegrityError: If the snapshot's
                config fingerprint does not match this scheduler, a row
                is unknown or already live or finished, or the internal
                invariants do not hold.
        """
        from ..state.errors import StateIntegrityError
        from ..state.schema import require

        config = require(state, "config", dict, "$.scheduler")
        mine = self.config_fingerprint()
        if config != mine:
            diverged = sorted(key for key in set(config) | set(mine)
                              if config.get(key) != mine.get(key))
            raise StateIntegrityError(
                f"scheduler snapshot was taken on a different "
                f"configuration (mismatched: {diverged})")

        waiting_rows = require(state, "waiting", list, "$.scheduler")
        running_entries = require(state, "running", list, "$.scheduler")
        size = len(self.table) if self.table is not None else 0
        claimed: set[int] = set()

        def claim(row: object, where: str) -> int:
            if (not isinstance(row, int) or isinstance(row, bool)
                    or not 0 <= row < size):
                raise StateIntegrityError(
                    f"{where} request row {row!r} is not in the bound run")
            if row in claimed or self._status[row]:
                raise StateIntegrityError(
                    f"{where} request row {row} is listed twice or "
                    f"already live or finished")
            claimed.add(row)
            return row

        waiting_rows = [claim(row, "waiting") for row in waiting_rows]
        running: dict[int, tuple[int, int, int, int]] = {}
        held_blocks = ctx_total = 0
        for entry in running_entries:
            row = claim(require(entry, "row", int, "$.scheduler.running"),
                        "running")
            generated = require(entry, "generated", int,
                                "$.scheduler.running")
            blocks = require(entry, "blocks", int, "$.scheduler.running")
            kvlen = require(entry, "kv_tokens", int, "$.scheduler.running")
            prompt, output = self._prompt[row], self._output[row]
            # Progress and held blocks are derived from the step
            # counter after restore, so they must agree with it here.
            if not 0 <= generated < output:
                raise StateIntegrityError(
                    f"running request row {row} has generated {generated} "
                    f"of {output} output tokens")
            if blocks != -(-(kvlen + generated) // self.block_size):
                raise StateIntegrityError(
                    f"running request row {row} holds {blocks} KV blocks "
                    f"for {kvlen + generated} tokens")
            # The step counter restarts at 0, so a restored sequence
            # was admitted ``generated`` steps before it.
            running[row] = (prompt, output, kvlen, -generated)
            held_blocks += blocks
            ctx_total += prompt + generated
        tenancy_payload = None
        pinned_blocks = 0
        if self.tenancy is not None:
            tenancy_payload = require(state, "tenancy", dict, "$.scheduler")
            pinned_blocks = sum(
                int(blocks) for blocks in
                require(tenancy_payload, "prefix_resident", dict,
                        "$.scheduler.tenancy").values())
        free_blocks = require(state, "free_blocks", int, "$.scheduler")
        if free_blocks + held_blocks + pinned_blocks != self.num_blocks:
            raise StateIntegrityError(
                "KV block conservation violated in snapshot")

        self._reset()
        self._running = running
        self._reindex()
        self._free_blocks = free_blocks
        self._ctx_total = ctx_total
        self._clock = require(state, "clock_s", float, "$.scheduler")
        self._preemptions = require(state, "preemptions", int, "$.scheduler")
        self._occ_sum = require(state, "occ_sum", int, "$.scheduler")
        self._occ_count = require(state, "occ_count", int, "$.scheduler")
        first = state.get("first_arrival_s")
        self._first_arrival = None if first is None else float(first)
        self._time_scale = require(state, "time_scale", float, "$.scheduler")
        if tenancy_payload is not None:
            self._restore_tenancy(tenancy_payload)
        if self._wfq:
            missing = [row for row in waiting_rows
                       if row not in self._wfq_tag]
            if missing:
                raise StateIntegrityError(
                    f"waiting request row {missing[0]} has no WFQ tag in "
                    f"the snapshot")
            self._waiting = [(self._wfq_tag[row], self._arrival[row], row)
                             for row in waiting_rows]
            self._wfq_next = None
        else:
            self._waiting = [(self._arrival[row], row)
                             for row in waiting_rows]
        # Derived, not snapshotted: rebuilt from the restored queue.
        waiting = self._waiting
        self._sorted = all(waiting[index] <= waiting[index + 1]
                           for index in range(len(waiting) - 1))
        units = self._row_units
        self._queued_units = sum(units[row] for row in waiting_rows)
        for row in claimed:
            self._status[row] = OutcomeLog.IN_FLIGHT

    def _restore_tenancy(self, payload: dict) -> None:
        """Install a tenancy runtime payload (post-restore)."""
        from ..state.schema import require, require_finite

        self._wfq_v = require_finite(payload, "wfq_v", "$.scheduler.tenancy")
        self._wfq_fin = {int(k): float(v) for k, v in
                         require(payload, "wfq_fin", dict,
                                 "$.scheduler.tenancy").items()}
        self._wfq_tag = {int(k): float(v) for k, v in
                         require(payload, "wfq_tags", dict,
                                 "$.scheduler.tenancy").items()}
        self._tenant_budget = {int(k): int(v) for k, v in
                               require(payload, "tenant_budget", dict,
                                       "$.scheduler.tenancy").items()}
        self._kv_reserved = {int(k): (int(v[0]), int(v[1])) for k, v in
                             require(payload, "reserved", dict,
                                     "$.scheduler.tenancy").items()}
        self._prefix_resident = {int(k): int(v) for k, v in
                                 require(payload, "prefix_resident", dict,
                                         "$.scheduler.tenancy").items()}
        self._prefix_hits = require(payload, "prefix_hits", int,
                                    "$.scheduler.tenancy")
        self._prefix_misses = require(payload, "prefix_misses", int,
                                      "$.scheduler.tenancy")


def poisson_stream(count: int, rate_per_s: float, mean_prompt: int = 256,
                   mean_output: int = 96, seed: int = 0) -> list[ServeRequest]:
    """A deterministic Poisson-like arrival stream for serving studies."""
    import random
    guards.count("count", count, ge=1)
    guards.finite("rate_per_s", rate_per_s, gt=0)
    rng = random.Random(seed)
    clock = 0.0
    requests = []
    for request_id in range(count):
        clock += rng.expovariate(rate_per_s)
        prompt = max(16, int(rng.lognormvariate(0.0, 0.5) * mean_prompt))
        output = max(8, int(rng.lognormvariate(0.0, 0.4) * mean_output))
        requests.append(ServeRequest(request_id=request_id, arrival_s=clock,
                                     prompt_tokens=prompt,
                                     output_tokens=output))
    return requests
