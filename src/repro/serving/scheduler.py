"""Continuous-batching serving simulation.

The paper's GPU experiments run vLLM, whose scheduler forms decode
batches dynamically from an arriving request stream and manages KV
memory in pages, preempting (and recomputing) requests when blocks run
out.  This module implements that serving loop over the repository's
substrates: admission and preemption run against paged KV memory, and
step durations come from the same TEE-aware cost model as every other
experiment — so serving SLAs (TTFT, end-to-end latency) can be compared
across bare metal, TDX, and (c)GPU deployments.

Request state is columnar: per-request fields live in append-only
``array`` columns keyed by submission slot, the running batch is one
insertion-ordered dict, and the paged KV cache collapses to a
free-block *count* — block identities never influence scheduling, only
availability does.  That keeps live state O(in-flight), so one fleet
run can push a million requests.

Decode is event-driven.  Every sequence still in the batch after a
decode step has gained exactly one token, so one step counter stands in
for every sequence's progress: a sequence admitted at step ``start``
with ``kvlen`` KV tokens has generated ``steps - start`` tokens and
holds ``ceil((kvlen + generated) / block_size)`` blocks.  Admission
indexes the two per-sequence events in advance — the steps at which the
next token crosses a block edge (a residue of the step counter modulo
``block_size``) and the step at which the sequence finishes — so a
decode step costs O(its events), not O(batch).  A step that needs more
blocks than are free may preempt; it falls back to the exact
per-sequence loop and rebuilds the index afterwards.  The independent
reference is ``repro.validate``'s ``serving.legacy_loop_parity``
check: a frozen transcription of the original run-to-completion loop
over a real :class:`~repro.llm.kvcache.PagedKVCache`, which ``run()``
must match bit-for-bit.

The scheduler is *incrementally steppable*: the fleet simulator
(:mod:`repro.fleet`) drives many replicas against a shared clock via
:meth:`ContinuousBatchingScheduler.submit` and
:meth:`ContinuousBatchingScheduler.step`, while :meth:`~
ContinuousBatchingScheduler.run` remains the single-replica
run-to-completion entry point.

Admission policy (head-of-line).  By default admission is strict FCFS:
the admission loop ``break``s on the first queued request whose KV
allocation fails, even if a *smaller* request queued behind it would
fit — exactly vLLM's default behavior, which trades utilization for
no-starvation.  Passing ``admission_lookahead=k`` relaxes this: after a
head-of-line allocation failure the scheduler scans up to ``k`` further
already-arrived requests and admits the first that fits (bounded
out-of-order admission; the head request keeps its queue position).

Multi-tenancy.  Passing a :class:`~repro.serving.admission.TenancyConfig`
arms per-tenant policy: weighted-fair-queueing admission (SCFQ virtual
finish tags; see :mod:`repro.serving.admission`) and per-tenant KV
isolation (hard partition via admission-time worst-case reservation, or
cross-request shared-prefix pinning with hit/miss accounting).  With no
config the scheduler executes the exact pre-tenancy instruction
sequence, so unarmed runs stay bit-identical to earlier releases.
"""

from __future__ import annotations

import math
from array import array
from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..engine.placement import Deployment
from ..llm.config import ModelConfig
from ..llm.datatypes import DType
from .admission import TenancyConfig
from .stepcost import StepCostTable


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
        # NaN passes a plain `< 0` comparison, so finiteness is explicit.
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            raise ValueError("arrival_s must be finite and >= 0")
        for field_name in ("prompt_tokens", "output_tokens"):
            value = getattr(self, field_name)
            if not math.isfinite(value) or value < 1:
                raise ValueError(f"{field_name} must be finite and >= 1")
        if not math.isfinite(self.priority):
            raise ValueError("priority must be finite")
        if not math.isfinite(self.tenant_id) or self.tenant_id < 0:
            raise ValueError("tenant_id must be finite and >= 0")

    def to_state(self) -> dict:
        """Plain-dict snapshot of this request (JSON-serializable)."""
        return {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
            "priority": self.priority,
            "tenant_id": self.tenant_id,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ServeRequest":
        """Rebuild a request, mapping guard failures to ``StateValueError``."""
        from ..state.errors import StateError, StateValueError
        from ..state.schema import require
        try:
            return cls(
                request_id=require(state, "request_id", int, "$.request"),
                arrival_s=require(state, "arrival_s", float, "$.request"),
                prompt_tokens=require(state, "prompt_tokens", int,
                                      "$.request"),
                output_tokens=require(state, "output_tokens", int,
                                      "$.request"),
                priority=require(state, "priority", int, "$.request"),
                # Lenient: pre-tenancy snapshots have no tenant column.
                tenant_id=int(state.get("tenant_id", 0)),
            )
        except StateError:
            raise
        except ValueError as error:
            # The __post_init__ finiteness guards fire on NaN/negative
            # payload values; surface them as the structured taxonomy.
            raise StateValueError(
                f"invalid request payload: {error}") from error


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


@dataclass(frozen=True)
class ServingReport:
    """Aggregate serving metrics.

    Attributes:
        outcomes: Per-request lifecycle records, in submission order.
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
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if admission_lookahead < 0:
            raise ValueError("admission_lookahead must be >= 0")
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
        self.num_blocks = max(1, kv_capacity_tokens // block_size)
        self._costs = StepCostTable.shared(deployment, model, dtype)
        self._time_scale = 1.0
        self._reset()

    def _reset(self) -> None:
        # Append-only per-request columns, indexed by submission slot.
        self._col_id = array("q")
        self._col_arrival = array("d")
        self._col_prompt = array("l")
        self._col_output = array("l")
        self._col_priority = array("l")
        self._col_tenant = array("l")
        self._col_first = array("d")
        self._col_finish = array("d")
        self._col_preempt = array("l")
        self._slot: dict[int, int] = {}   # live request id -> slot
        self._dead: set[int] = set()      # forgotten/released slots
        # Waiting queue: (arrival_s, request_id) tuples under FCFS,
        # (wfq_tag, arrival_s, request_id) under WFQ — either way the
        # request id is entry[-1] and the arrival entry[-2].  Sorted,
        # except that FCFS preemptions re-enter at the head.  The
        # logical queue is ``_waiting[_head:]``: unarmed FCFS admission
        # pops the head by advancing ``_head`` and compacts the dead
        # prefix once it passes half the list (``_head`` stays 0 under
        # tenancy).  Invariant: ``2 * _head <= len(_waiting)``, so the
        # list is empty exactly when the logical queue is.
        self._waiting: list[tuple] = []
        self._head = 0
        # Running batch: request id -> (slot, prompt, output, kvlen,
        # start), in admission order (dict order), so the youngest
        # sequence is the last item.  ``kvlen`` is the KV length the
        # sequence was admitted with — the prompt, or just the suffix
        # under shared-prefix isolation — and ``start`` the decode step
        # it was admitted at.
        self._running: dict[int, tuple[int, int, int, int, int]] = {}
        # Decode steps taken; a running sequence has generated
        # ``_steps - start`` tokens.  ``_res_count[r]`` counts running
        # sequences whose next token crosses a block edge at steps
        # ``s % block_size == r``; ``_finish_at[s]`` lists, in batch
        # order, the sequences whose last token is decoded at step s.
        self._steps = 0
        self._res_count = [0] * self.block_size
        self._finish_at: dict[int, list[int]] = {}
        self._free_blocks = self.num_blocks
        self._ctx_total = 0               # sum(prompt + generated) over batch
        self._clock = 0.0
        self._preemptions = 0
        self._occ_sum = 0
        self._occ_count = 0
        self._first_arrival: float | None = None
        # Tenancy runtime state (inert when unarmed).
        self._wfq_v = 0.0
        self._wfq_fin: dict[int, float] = {}
        self._wfq_tag: dict[int, float] = {}
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
        if not math.isfinite(scale) or scale <= 0:
            raise ValueError("time_scale must be finite and positive")
        self._time_scale = scale

    def _scaled(self, step_s: float) -> float:
        # Guarded so the nominal path performs no float op at all.
        if self._time_scale != 1.0:
            return step_s * self._time_scale
        return step_s

    # -- request materialization ----------------------------------------------

    def _request_at(self, slot: int) -> ServeRequest:
        return ServeRequest(request_id=self._col_id[slot],
                            arrival_s=self._col_arrival[slot],
                            prompt_tokens=self._col_prompt[slot],
                            output_tokens=self._col_output[slot],
                            priority=self._col_priority[slot],
                            tenant_id=self._col_tenant[slot])

    def request(self, request_id: int) -> ServeRequest:
        """Materialize the live request with this id (value-equal copy)."""
        return self._request_at(self._slot[request_id])

    def output_tokens(self, request_id: int) -> int:
        """Output-token target of a live request (fleet accounting hook)."""
        return self._col_output[self._slot[request_id]]

    def finished_triple(self, request_id: int) -> tuple[float, float, int]:
        """``(first_token_s, finish_s, preemptions)`` of a live record."""
        slot = self._slot[request_id]
        return (self._col_first[slot], self._col_finish[slot],
                self._col_preempt[slot])

    def release(self, request_id: int) -> None:
        """Drop the live record of a *finished* request.

        The fleet copies the timeline triple into its own ledger as
        finishes surface, then releases the id here so the scheduler's
        live dict stays O(in-flight) over a 1M-request run.
        The append-only columns retain the slot (cheap: a few plain
        scalars), it just no longer appears in :meth:`report`.
        """
        self._forget(request_id)

    # -- admission ------------------------------------------------------------

    def _check_fits(self, request: ServeRequest) -> None:
        needed = request.prompt_tokens + request.output_tokens
        if needed > self.num_blocks * self.block_size:
            raise ValueError(
                f"request {request.request_id} needs {needed} KV tokens, "
                f"pool holds {self.num_blocks * self.block_size}")
        if self.kv_isolation == "partition":
            cap = self._tenant_budget_cap.get(request.tenant_id)
            if cap is None:
                raise ValueError(
                    f"tenant {request.tenant_id} has no KV partition on "
                    f"this replica")
            worst_case = -(-needed // self.block_size)
            if worst_case > cap:
                raise ValueError(
                    f"request {request.request_id} needs {worst_case} "
                    f"blocks, tenant {request.tenant_id} partition holds "
                    f"{cap}")

    def submit(self, request: ServeRequest) -> None:
        """Enqueue one request for service (fleet/step entry point).

        Raises:
            ValueError: If the request cannot ever fit the KV pool or
                reuses an id still in flight.
        """
        self._check_fits(request)
        if request.request_id in self._slot:
            raise ValueError(f"request id {request.request_id} already "
                             "submitted to this replica")
        slot = len(self._col_id)
        self._col_id.append(request.request_id)
        self._col_arrival.append(request.arrival_s)
        self._col_prompt.append(request.prompt_tokens)
        self._col_output.append(request.output_tokens)
        self._col_priority.append(request.priority)
        self._col_tenant.append(request.tenant_id)
        self._col_first.append(0.0)
        self._col_finish.append(0.0)
        self._col_preempt.append(0)
        self._slot[request.request_id] = slot
        if self._wfq:
            # SCFQ tag: chain on the tenant's previous virtual finish,
            # floored at the global virtual clock.
            start = max(self._wfq_fin.get(request.tenant_id, 0.0),
                        self._wfq_v)
            tag = start + ((request.prompt_tokens + request.output_tokens)
                           / self.tenancy.weight_of(request.tenant_id))
            self._wfq_fin[request.tenant_id] = tag
            self._wfq_tag[request.request_id] = tag
            insort(self._waiting,
                   (tag, request.arrival_s, request.request_id))
        else:
            # lo=_head probes the same midpoints as insort on the
            # logical queue, so placement matches even when a
            # preemption has left the queue unsorted.
            insort(self._waiting, (request.arrival_s, request.request_id),
                   lo=self._head)
        if (self._first_arrival is None
                or request.arrival_s < self._first_arrival):
            self._first_arrival = request.arrival_s

    def _forget(self, request_id: int) -> None:
        """Drop all live bookkeeping for a request."""
        self._wfq_tag.pop(request_id, None)
        slot = self._slot.pop(request_id, None)
        if slot is not None:
            self._dead.add(slot)

    def _compact_waiting(self) -> None:
        """Drop the dead prefix so ``_waiting`` is the logical queue."""
        if self._head:
            del self._waiting[:self._head]
            self._head = 0

    def _release_reserve(self, request_id: int) -> None:
        """Return a partition-mode worst-case reservation, if any."""
        reserved = self._kv_reserved.pop(request_id, None)
        if reserved is not None:
            tenant_id, blocks = reserved
            self._tenant_budget[tenant_id] += blocks

    def cancel(self, request_id: int) -> tuple[ServeRequest, int] | None:
        """Withdraw an unfinished request (fleet timeout/retry hook).

        Removes the request from the waiting queue or the running batch,
        frees its KV blocks, and erases its record so the fleet may
        resubmit it here or elsewhere.  Finished or unknown requests are
        left untouched.

        Returns:
            ``(request, tokens_generated)`` for the cancelled request —
            the generated count is the work wasted by the cancellation —
            or ``None`` if the request is not in flight here.
        """
        self._compact_waiting()
        for index, entry in enumerate(self._waiting):
            if entry[-1] == request_id:
                request = self.request(request_id)
                self._waiting.pop(index)
                self._forget(request_id)
                return request, 0
        if request_id in self._running:
            request = self.request(request_id)
            generated = self._drop_running(request_id)
            self._forget(request_id)
            return request, generated
        return None

    def evacuate(self) -> list[tuple[ServeRequest, int]]:
        """Abort all in-flight work (replica crash hook).

        Empties the waiting queue and the running batch, freeing every
        KV allocation, and erases the records of the evacuated requests
        (completed records are kept).  The fleet requeues the evacuated
        requests elsewhere; tokens already generated by the running
        batch are lost and reported as wasted work.

        Returns:
            ``(request, tokens_generated)`` pairs in deterministic
            order: waiting queue first, then the running batch.
        """
        self._compact_waiting()
        evacuated = [(self.request(entry[-1]), 0)
                     for entry in self._waiting]
        for rid in list(self._running):
            evacuated.append((self.request(rid), self._drop_running(rid)))
        self._waiting.clear()
        for request, _ in evacuated:
            self._forget(request.request_id)
        # A crashed replica loses its pinned shared prefixes too.
        for blocks in self._prefix_resident.values():
            self._free_blocks += blocks
        self._prefix_resident.clear()
        return evacuated

    def _drop_running(self, rid: int) -> int:
        """Withdraw an unfinished running sequence: free its KV and
        unindex its events.  Returns the tokens it had generated."""
        _, prompt, output, kvlen, start = self._running.pop(rid)
        generated = self._steps - start
        self._free_blocks += -(-(kvlen + generated) // self.block_size)
        self._release_reserve(rid)
        self._ctx_total -= prompt + generated
        self._res_count[(start - kvlen) % self.block_size] -= 1
        pending = self._finish_at[start + output - 1]
        pending.remove(rid)
        if not pending:
            del self._finish_at[start + output - 1]
        return generated

    def _reindex(self) -> None:
        """Rebuild the residue and finish-step index from the batch."""
        block_size = self.block_size
        res_count = [0] * block_size
        finish_at: dict[int, list[int]] = {}
        for rid, (_, _, output, kvlen, start) in self._running.items():
            res_count[(start - kvlen) % block_size] += 1
            finish_at.setdefault(start + output - 1, []).append(rid)
        self._res_count = res_count
        self._finish_at = finish_at

    def estimated_ttft_s(self, request: ServeRequest, now: float) -> float:
        """Deterministic TTFT estimate if ``request`` were routed here now.

        Counts the replica's clock lead over ``now``, the prefill work
        queued ahead of the request, and the request's own prefill —
        the quantity the cost/SLO-aware router compares against the
        TTFT SLO.  An underestimate under decode contention, but
        monotone in queue depth, which is what routing needs.
        """
        prefill_s = self._costs.prefill_s
        prompts = self._col_prompt
        slots = self._slot
        backlog = max(0.0, self._clock - now)
        backlog += self._scaled(sum(prefill_s(prompts[slots[entry[-1]]])
                                    for entry in islice(self._waiting,
                                                        self._head, None)))
        return backlog + self._scaled(prefill_s(request.prompt_tokens))

    @property
    def prefix_hits(self) -> int:
        """Admissions that reused a resident shared prefix."""
        return self._prefix_hits

    @property
    def prefix_misses(self) -> int:
        """Admissions that had to pin a tenant's shared prefix."""
        return self._prefix_misses

    def _admit(self) -> None:
        """Admit arrived requests per policy while memory/slots allow."""
        if self.tenancy is None:
            self._admit_default()
        elif self._wfq:
            self._admit_wfq()
        else:
            self._admit_fcfs_tenant()

    def _admit_default(self) -> None:
        """Unarmed FCFS fast path — the pre-tenancy admission order."""
        waiting = self._waiting
        block_size = self.block_size
        while (waiting and len(self._running) < self.max_batch
               and waiting[self._head][0] <= self._clock):
            head = self._head
            _, rid = waiting[head]
            admitted_index = head
            slot = self._slot[rid]
            prompt = self._col_prompt[slot]
            needed = -(-prompt // block_size)
            if needed > self._free_blocks:
                # Head-of-line blocking: strict FCFS stops here.  With
                # lookahead, scan a bounded window of arrived requests
                # for one that fits right now.
                admitted_index = -1
                for index in range(head + 1,
                                   head + 1 + min(self.admission_lookahead,
                                                  len(waiting) - head - 1)):
                    c_arrival, c_rid = waiting[index]
                    if c_arrival > self._clock:
                        break
                    c_slot = self._slot[c_rid]
                    c_prompt = self._col_prompt[c_slot]
                    c_needed = -(-c_prompt // block_size)
                    if c_needed > self._free_blocks:
                        continue
                    rid, slot = c_rid, c_slot
                    prompt, needed = c_prompt, c_needed
                    admitted_index = index
                    break
                if admitted_index < 0:
                    break
            self._free_blocks -= needed
            if admitted_index == head:
                self._head = head = head + 1
                if 2 * head > len(waiting):
                    del waiting[:head]
                    self._head = 0
            else:
                waiting.pop(admitted_index)
            self._start_running(rid, slot, prompt, prompt)

    def _start_running(self, rid: int, slot: int, prompt: int,
                       kvlen: int) -> None:
        """Charge prefill, move an admitted request into the batch and
        index its block-edge residue and finish step."""
        self._clock += self._scaled(self._costs.prefill_s(prompt))
        self._col_first[slot] = self._clock
        start = self._steps
        output = self._col_output[slot]
        self._running[rid] = (slot, prompt, output, kvlen, start)
        self._ctx_total += prompt
        self._res_count[(start - kvlen) % self.block_size] += 1
        self._finish_at.setdefault(start + output - 1, []).append(rid)

    def _kv_admit(self, rid: int, slot: int) -> tuple[int, int] | None:
        """Take KV blocks for an admitted request per isolation mode.

        ``shared`` takes the prompt's blocks.  ``partition`` also debits
        the tenant's worst-case reservation up front, so decode growth
        can never fail and tenants cannot evict each other.
        ``shared-prefix`` pins the tenant's common prefix once and takes
        only the suffix per request.

        Returns ``(blocks_taken, kvlen)`` on success (the free counter
        already debited), or ``None`` if the request does not fit right
        now — the admission loop's signal to stop or look ahead.
        """
        block_size = self.block_size
        prompt = self._col_prompt[slot]
        if self.kv_isolation == "shared":
            needed = -(-prompt // block_size)
            if needed > self._free_blocks:
                return None
            self._free_blocks -= needed
            return needed, prompt
        tenant_id = self._col_tenant[slot]
        if self.kv_isolation == "partition":
            reserve = -(-(prompt + self._col_output[slot]) // block_size)
            budget = self._tenant_budget[tenant_id]
            if reserve > budget:
                return None
            needed = -(-prompt // block_size)
            self._free_blocks -= needed
            self._tenant_budget[tenant_id] = budget - reserve
            self._kv_reserved[rid] = (tenant_id, reserve)
            return needed, prompt
        # shared-prefix
        prefix = self.tenancy.prefix_of(tenant_id)
        usable = min(prefix, prompt - 1)
        if usable <= 0:
            needed = -(-prompt // block_size)
            if needed > self._free_blocks:
                return None
            self._free_blocks -= needed
            return needed, prompt
        suffix = prompt - usable
        suffix_blocks = -(-suffix // block_size)
        if tenant_id in self._prefix_resident:
            if suffix_blocks > self._free_blocks:
                return None
            self._free_blocks -= suffix_blocks
            self._prefix_hits += 1
            return suffix_blocks, suffix
        prefix_blocks = -(-prefix // block_size)
        if prefix_blocks + suffix_blocks > self._free_blocks:
            return None
        self._free_blocks -= prefix_blocks + suffix_blocks
        self._prefix_resident[tenant_id] = prefix_blocks
        self._prefix_misses += 1
        return suffix_blocks, suffix

    def _admit_fcfs_tenant(self) -> None:
        """FCFS admission with tenancy KV isolation armed."""
        waiting = self._waiting
        while (waiting and len(self._running) < self.max_batch
               and waiting[0][0] <= self._clock):
            rid = waiting[0][-1]
            admitted_index = 0
            slot = self._slot[rid]
            taken = self._kv_admit(rid, slot)
            if taken is None:
                admitted_index = -1
                for index in range(1, 1 + min(self.admission_lookahead,
                                              len(waiting) - 1)):
                    entry = waiting[index]
                    if entry[-2] > self._clock:
                        break
                    c_rid = entry[-1]
                    c_slot = self._slot[c_rid]
                    taken = self._kv_admit(c_rid, c_slot)
                    if taken is None:
                        continue
                    rid, slot = c_rid, c_slot
                    admitted_index = index
                    break
                if admitted_index < 0:
                    break
            waiting.pop(admitted_index)
            self._start_running(rid, slot, self._col_prompt[slot],
                                taken[1])

    def _admit_wfq(self) -> None:
        """WFQ admission: serve arrived requests in virtual-finish order.

        The queue is tag-ordered, not arrival-ordered, so the head may
        not have arrived yet while a later entry has; the scan skips
        unarrived entries (they cost no lookahead budget) and treats the
        first arrived entry as the head of line.  On its allocation
        failure, ``admission_lookahead`` further *arrived* candidates
        are tried, exactly mirroring the FCFS window.
        """
        waiting = self._waiting
        while waiting and len(self._running) < self.max_batch:
            head_index = -1
            for index, entry in enumerate(waiting):
                if entry[-2] <= self._clock:
                    head_index = index
                    break
            if head_index < 0:
                break  # nothing has arrived yet
            rid = waiting[head_index][-1]
            admitted_index = head_index
            slot = self._slot[rid]
            taken = self._kv_admit(rid, slot)
            if taken is None:
                admitted_index = -1
                scanned = 0
                for index in range(head_index + 1, len(waiting)):
                    if scanned >= self.admission_lookahead:
                        break
                    entry = waiting[index]
                    if entry[-2] > self._clock:
                        continue
                    scanned += 1
                    c_rid = entry[-1]
                    c_slot = self._slot[c_rid]
                    taken = self._kv_admit(c_rid, c_slot)
                    if taken is None:
                        continue
                    rid, slot = c_rid, c_slot
                    admitted_index = index
                    break
                if admitted_index < 0:
                    break
            waiting.pop(admitted_index)
            self._start_running(rid, slot, self._col_prompt[slot],
                                taken[1])
            tag = self._wfq_tag[rid]
            if tag > self._wfq_v:
                self._wfq_v = tag

    # -- decode ----------------------------------------------------------------

    def _charge_step(self) -> int:
        """Advance the clock by one decode step; returns the batch size."""
        batch = len(self._running)
        mean_context = int(self._ctx_total / batch)
        self._occ_sum += batch
        self._occ_count += 1
        self._clock += self._scaled(
            self._costs.decode_step_s(batch, max(1, mean_context)))
        return batch

    def _decode_once(self) -> list[int]:
        """One decode step for the whole batch; returns finished ids.

        Touches only the step's events: the block-edge residue count
        says how many blocks the batch takes, and the finish index
        which sequences retire.  A step that needs more blocks than are
        free may preempt, so it takes the exact per-sequence path.
        """
        step = self._steps
        need = self._res_count[step % self.block_size]
        if need > self._free_blocks:
            return self._decode_exact()
        batch = self._charge_step()
        self._free_blocks -= need
        self._ctx_total += batch
        self._steps = step + 1
        finished = self._finish_at.pop(step, None)
        if finished is None:
            return []
        # A finishing sequence has generated exactly its output.
        running = self._running
        block_size = self.block_size
        for rid in finished:
            slot, prompt, output, kvlen, start = running.pop(rid)
            self._col_finish[slot] = self._clock
            self._free_blocks += -(-(kvlen + output) // block_size)
            self._ctx_total -= prompt + output
            self._res_count[(start - kvlen) % block_size] -= 1
            if self._kv_reserved:
                self._release_reserve(rid)
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
        self._charge_step()
        step = self._steps
        block_size = self.block_size
        running = self._running
        # In-loop removals only pop the youngest (the dict's last item),
        # so the live batch is always a prefix of this snapshot and a
        # victim's snapshot index is the batch size after the pop.
        batch = list(running.items())
        run_gen = [step - record[4] for _, record in batch]
        run_blocks = [-(-(record[3] + generated) // block_size)
                      for (_, record), generated in zip(batch, run_gen)]
        preempted: set[int] = set()
        finished: list[tuple[int, int]] = []  # (index, request_id)

        for index, (rid, record) in enumerate(batch):
            if rid in preempted:
                continue
            generated = run_gen[index]
            kvlen = record[3]
            appended = False
            while not appended:
                if (kvlen + generated) % block_size == 0:
                    # The next token crosses a block boundary.
                    if self._free_blocks == 0:
                        # Preempt the youngest sequence.
                        victim_id, victim = running.popitem()
                        tail = len(running)
                        victim_slot = victim[0]
                        self._free_blocks += run_blocks[tail]
                        self._release_reserve(victim_id)
                        self._col_preempt[victim_slot] += 1
                        self._ctx_total -= victim[1] + run_gen[tail]
                        victim_arrival = self._col_arrival[victim_slot]
                        if self._wfq:
                            # The victim keeps its tag: it re-queues at
                            # its original virtual position.
                            insort(self._waiting,
                                   (self._wfq_tag[victim_id],
                                    victim_arrival, victim_id))
                        elif self._head:
                            self._head -= 1
                            self._waiting[self._head] = (victim_arrival,
                                                         victim_id)
                        else:
                            self._waiting.insert(0, (victim_arrival,
                                                     victim_id))
                        preempted.add(victim_id)
                        self._preemptions += 1
                        if victim_id == rid:
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
            if generated >= record[2]:
                finished.append((index, rid))

        self._steps = step + 1
        results: list[int] = []
        for index, rid in finished:
            record = running.pop(rid, None)
            if record is None:
                # Cannot arise: a finished entry holds its blocks until
                # this cleanup, so it is never chosen as a victim.
                raise RuntimeError("finished entry vanished mid-step")
            self._col_finish[record[0]] = self._clock
            self._free_blocks += run_blocks[index]
            self._release_reserve(rid)
            self._ctx_total -= record[1] + run_gen[index]
            results.append(rid)
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
        clock stays put so later submissions are not delayed).

        Returns:
            Ids of requests that finished during this call (read their
            timelines via :meth:`finished_triple`).
        """
        finished: list[int] = []
        # Admission and decode mutate the queue and batch in place, so
        # these locals stay bound to the live objects.
        waiting = self._waiting
        running = self._running
        admit = self._admit
        decode = self._decode_once
        max_batch = self.max_batch
        while waiting or running:
            if until_s is not None and self._clock >= until_s:
                break
            if (not running and until_s is not None
                    and self._next_arrival_s() > until_s):
                break  # only future work remains in this horizon
            if waiting and len(running) < max_batch:
                admit()
            if not running:
                # Idle until the next arrival.
                arrival = self._next_arrival_s()
                if arrival > self._clock:
                    self._clock = arrival
                continue
            finished += decode()
        return finished

    def _next_arrival_s(self) -> float:
        """Earliest arrival among waiting requests.

        Under FCFS the queue is arrival-ordered so the head suffices;
        under WFQ the queue is tag-ordered and must be scanned.
        """
        if self._wfq:
            return min(entry[-2] for entry in self._waiting)
        return self._waiting[self._head][0]

    def report(self) -> ServingReport:
        """Aggregate metrics of everything served so far.

        Materializes :class:`RequestOutcome` records from the columns,
        in submission order (released requests excluded).

        Raises:
            ValueError: If nothing was ever submitted.
        """
        outcomes = tuple(
            RequestOutcome(request=self._request_at(slot),
                           first_token_s=self._col_first[slot],
                           finish_s=self._col_finish[slot],
                           preemptions=self._col_preempt[slot])
            for slot in range(len(self._col_id))
            if slot not in self._dead)
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

    def run(self, requests: list[ServeRequest]) -> ServingReport:
        """Serve a request stream to completion (single-replica mode).

        Raises:
            ValueError: If any single request cannot ever fit the KV
                pool, or an id repeats.
        """
        if not requests:
            raise ValueError("no requests")
        for request in requests:
            self._check_fits(request)
        self._reset()
        if self._wfq:
            # WFQ tags chain per tenant in submission order, so the
            # stream is submitted in arrival order (the order the fleet
            # would deliver it).
            ordered = sorted(requests,
                             key=lambda r: (r.arrival_s, r.request_id))
        else:
            ordered = requests
        for request in ordered:
            self.submit(request)
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

        When tenancy is armed the payload additionally carries the WFQ
        virtual clocks, per-tenant budgets and shared-prefix residency.
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
            "columns": {
                "id": list(self._col_id),
                "arrival": list(self._col_arrival),
                "prompt": list(self._col_prompt),
                "output": list(self._col_output),
                "priority": list(self._col_priority),
                "tenant": list(self._col_tenant),
                "first": list(self._col_first),
                "finish": list(self._col_finish),
                "preempt": list(self._col_preempt),
            },
            "dead": sorted(self._dead),
            "waiting": [list(entry) for entry
                        in islice(self._waiting, self._head, None)],
            "running": [{"request_id": rid,
                         "generated": self._steps - start,
                         "blocks": -(-(kvlen + self._steps - start)
                                     // self.block_size),
                         "slot": slot,
                         "kv_tokens": kvlen}
                        for rid, (slot, _, _, kvlen, start)
                        in self._running.items()],
        }
        if self.tenancy is not None:
            state["tenancy"] = {
                "wfq_v": self._wfq_v,
                "wfq_fin": {str(tenant_id): fin
                            for tenant_id, fin in self._wfq_fin.items()},
                "wfq_tags": {str(request_id): tag
                             for request_id, tag in self._wfq_tag.items()},
                "tenant_budget": {str(tenant_id): budget
                                  for tenant_id, budget
                                  in self._tenant_budget.items()},
                "reserved": {str(request_id): [tenant_id, blocks]
                             for request_id, (tenant_id, blocks)
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

        Raises:
            repro.state.errors.StateIntegrityError: If the snapshot's
                config fingerprint does not match this scheduler or its
                internal invariants do not hold.
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

        columns = require(state, "columns", dict, "$.scheduler")
        cols = {name: require(columns, name, list, "$.scheduler.columns")
                for name in ("id", "arrival", "prompt", "output", "priority",
                             "first", "finish", "preempt")}
        length = len(cols["id"])
        # Lenient: pre-tenancy snapshots have no tenant column.
        cols["tenant"] = (require(columns, "tenant", list,
                                  "$.scheduler.columns")
                          if "tenant" in columns else [0] * length)
        if any(len(values) != length for values in cols.values()):
            raise StateIntegrityError("ragged scheduler snapshot")
        dead = {int(slot) for slot in require(state, "dead", list,
                                              "$.scheduler")}
        if any(slot < 0 or slot >= length for slot in dead):
            raise StateIntegrityError("dead slot out of range")
        slot_map: dict[int, int] = {}
        for slot in range(length):
            if slot in dead:
                continue
            rid = int(cols["id"][slot])
            if rid in slot_map:
                raise StateIntegrityError(
                    f"request {rid} is live in two slots")
            slot_map[rid] = slot

        expected_width = 3 if self._wfq else 2
        waiting: list[tuple] = []
        for pair in require(state, "waiting", list, "$.scheduler"):
            if len(pair) != expected_width:
                raise StateIntegrityError(
                    f"waiting entry width {len(pair)} does not match the "
                    f"{self.admission!r} admission policy")
            rid = int(pair[-1])
            if rid not in slot_map:
                raise StateIntegrityError(
                    f"waiting request {rid} has no live column slot")
            if self._wfq:
                waiting.append((float(pair[0]), float(pair[1]), rid))
            else:
                waiting.append((float(pair[0]), rid))
        running: dict[int, tuple[int, int, int, int, int]] = {}
        held_blocks = ctx_total = 0
        for entry in require(state, "running", list, "$.scheduler"):
            rid = require(entry, "request_id", int, "$.scheduler.running")
            if rid not in slot_map:
                raise StateIntegrityError(
                    f"running request {rid} has no live column slot")
            if rid in running:
                raise StateIntegrityError(
                    f"running request {rid} is listed twice")
            generated = require(entry, "generated", int,
                                "$.scheduler.running")
            blocks = require(entry, "blocks", int, "$.scheduler.running")
            slot = require(entry, "slot", int, "$.scheduler.running")
            # Lenient: pre-tenancy snapshots carry no kv_tokens (the
            # KV length always equalled the prompt).
            kvlen = int(entry.get("kv_tokens", cols["prompt"][slot]))
            # Progress and held blocks are derived from the step
            # counter after restore, so they must agree with it here.
            if not 0 <= generated < int(cols["output"][slot]):
                raise StateIntegrityError(
                    f"running request {rid} has generated {generated} of "
                    f"{cols['output'][slot]} output tokens")
            if blocks != -(-(kvlen + generated) // self.block_size):
                raise StateIntegrityError(
                    f"running request {rid} holds {blocks} KV blocks for "
                    f"{kvlen + generated} tokens")
            # The step counter restarts at 0, so a restored sequence
            # was admitted ``generated`` steps before it.
            prompt = int(cols["prompt"][slot])
            running[rid] = (slot, prompt, int(cols["output"][slot]), kvlen,
                            -generated)
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

        self._col_id = array("q", (int(v) for v in cols["id"]))
        self._col_arrival = array("d", (float(v) for v in cols["arrival"]))
        self._col_prompt = array("l", (int(v) for v in cols["prompt"]))
        self._col_output = array("l", (int(v) for v in cols["output"]))
        self._col_priority = array("l", (int(v) for v in cols["priority"]))
        self._col_tenant = array("l", (int(v) for v in cols["tenant"]))
        self._col_first = array("d", (float(v) for v in cols["first"]))
        self._col_finish = array("d", (float(v) for v in cols["finish"]))
        self._col_preempt = array("l", (int(v) for v in cols["preempt"]))
        self._slot = slot_map
        self._dead = dead
        self._waiting = waiting
        self._head = 0
        self._running = running
        self._steps = 0
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

    def _restore_tenancy(self, payload: dict) -> None:
        """Install a tenancy runtime payload (post-restore)."""
        from ..state.errors import StateIntegrityError
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
        if self._wfq:
            for entry in self._waiting:
                if entry[-1] not in self._wfq_tag:
                    raise StateIntegrityError(
                        f"waiting request {entry[-1]} has no WFQ tag in "
                        f"the snapshot")


def poisson_stream(count: int, rate_per_s: float, mean_prompt: int = 256,
                   mean_output: int = 96, seed: int = 0) -> list[ServeRequest]:
    """A deterministic Poisson-like arrival stream for serving studies."""
    import random
    if count < 1 or rate_per_s <= 0:
        raise ValueError("count >= 1 and positive rate required")
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
