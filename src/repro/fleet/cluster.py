"""Shared-clock fleet simulator: N replicas, one request stream.

The event loop advances a global clock in fixed ticks.  At every tick
it (1) lets the autoscaler provision or drain instances, (2) activates
replicas whose boot latency elapsed, (3) routes arrivals due by the
tick to live replicas, and (4) steps the scheduler of every replica
with work (or a hang to resume from) to the tick horizon; stepping an
idle scheduler is an exact no-op, so idle replicas are skipped.
Replica-local clocks may overshoot a tick (prefill and decode steps
are not preemptible) but are resynchronized by the horizon of the next
``step`` call — the same quantized-time contract real cluster managers
have with their nodes.

A tick pays per event, not per replica: it costs O(busy replicas +
due lifecycle edges + routed rows), whatever the fleet's width.  Four
derived indexes make that so.  The *busy set* holds exactly the active
replicas with work or a pending hang; both step loops walk it in id
order.  The *wake heap* holds every lifecycle edge (boot or attest
readiness, restart, hang and slowdown expiry), pushed by the
transition that creates it; a tick acts only on the replicas whose
edges fell due, in id order, and the quiet-tick jump peeks its top.
The *flight heap* orders in-flight requests by routing time, so
timeouts pop an expired prefix.  The least-outstanding and KV-pressure
routers keep a *load heap* across ticks and re-key only the replicas
the fleet reports as moved.  None of them is snapshotted: each is
rebuilt from replica and run state by ``begin_run`` and
``from_state``.  Stale heap entries are dropped when they surface.

Inside a run a request is a row of the run's
:class:`~repro.fleet.table.RequestTable` (a ``list[ServeRequest]`` is
converted once on entry).  Every replica's
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler` is bound
to that table and to one run-wide
:class:`~repro.serving.scheduler.OutcomeLog`; routing, the held list,
retries, flights and the shed ledger all carry rows, and the report's
views build request objects only on demand.
:meth:`FleetSimulator.run` jumps quiet stretches of the tick grid in
one composed scheduler step instead of ticking through them, so it pays
per event rather than per grid tick.  The jump is taken only when no
tick in the stretch could act (no arrival, retry, fault,
boot/attest/restart/hang/slowdown edge, or flight timeout is due, no
autoscaler, nothing held) and lands on the last tick before the next
such edge, so the ticks that do act execute at exactly the clock
values of a plain ``run_tick`` loop — reports are bit-identical,
pinned by the ``fleet.jump_parity`` audit check.

Fault injection (:mod:`repro.faults`) plugs into the same loop: when a
schedule, retry policy, or degradation policy is supplied, each tick
additionally applies due faults, reboots repaired instances, re-attests
TEE replicas before readmission, retries timed-out or evacuated
requests with seeded backoff, and sheds or spills work the degraded
fleet cannot hold.  Every chaos hook is gated so a run without fault
machinery executes the exact fault-free instruction sequence — the
``chaos.zero_fault_twin`` audit check pins this bit-for-bit.

Determinism: replicas are stepped and inspected in id order, arrivals
are routed in (arrival, id) order, retries in (due, id) order, faults
in schedule order, and all randomness lives in the seeded arrival
generators and retry-jitter draws — so one config + one stream produce
one bit-identical :class:`~repro.fleet.report.FleetReport`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from heapq import heapify, heappop, heappush

import numpy as np

from .. import guards
from ..faults.attest import FleetAttestation, needs_attestation
from ..faults.injector import FaultInjector
from ..faults.resilience import DegradationPolicy, RetryPolicy
from ..faults.schedule import DEFAULT_DURATION_S, FaultEvent, FaultSchedule
from ..scaleout.links import link_slowdown_factor
from ..serving.scheduler import OutcomeLog, ServeRequest
from .autoscaler import ReactiveAutoscaler
from .replica import (
    ATTESTING,
    BOOTING,
    DRAINING,
    FAILED,
    LIVE,
    RETIRED,
    Replica,
    ReplicaSpec,
)
from .report import FleetReport, ReplicaUsage
from .retryq import RetryQueue
from .router import LeastOutstandingRouter, Router
from .table import ColumnarOutcomes, RequestTable, ShedLog

#: Default tick width.  Small enough that routing sees fresh replica
#: state every few decode steps; large enough that a fleet run is a few
#: thousand ticks, not millions.
DEFAULT_TICK_S = 0.25


class _ChaosState:
    """Per-run resilience bookkeeping (only allocated under chaos).

    Tracks in-flight attempts, the retry queue, the shed ledger, and
    the waste counters that make the final report failure-aware.  Every
    request is a row of the run's table.
    """

    def __init__(self, injector: FaultInjector,
                 retry: RetryPolicy | None,
                 degradation: DegradationPolicy | None,
                 table: RequestTable) -> None:
        self.injector = injector
        self.retry = retry
        self.degradation = degradation
        self.table = table
        self.ids = table.scalar_columns().request_id
        self.flights: dict[int, tuple[Replica, float]] = {}
        #: ``(routed_s, row)`` per flight, oldest first, kept only under
        #: a retry policy (timeouts need it).  An entry is current while
        #: ``flights[row]`` still carries its ``routed_s``; the others
        #: are dropped when they surface.
        self.flight_heap: list[tuple[float, int]] = []
        self.attempts: dict[int, int] = {}
        self.retry_queue = RetryQueue()
        self.held_since: dict[int, float] = {}
        self.shed = ShedLog(table)
        self.wasted_tokens = 0
        self.retries = 0
        self.spilled = 0

    def requeue_or_shed(self, row: int, now: float, generated: int) -> None:
        """Route a failed attempt back through retry policy or shed it."""
        self.wasted_tokens += generated
        made = self.attempts.get(row, 0)
        if self.retry is None:
            # No policy: crash evacuations still requeue immediately so
            # no request is ever silently lost.
            self.retry_queue.push(now, row)
            return
        if made >= self.retry.max_attempts:
            self.shed.append(row, now, "retries-exhausted", made)
            return
        delay = self.retry.backoff_s(self.ids[row], made)
        self.retry_queue.push(now + delay, row)

    def shed_request(self, row: int, now: float, reason: str) -> None:
        self.held_since.pop(row, None)
        self.shed.append(row, now, reason, self.attempts.get(row, 0))

    def land(self, finished: list[int]) -> None:
        """Retire the flights of finished rows (their outcomes are
        already in the run's log)."""
        for row in finished:
            self.flights.pop(row, None)

    def oldest_flight_s(self) -> float | None:
        """``routed_s`` of the oldest current flight, if any."""
        heap, flights = self.flight_heap, self.flights
        while heap:
            routed_s, row = heap[0]
            flight = flights.get(row)
            if flight is not None and flight[1] == routed_s:
                return routed_s
            heappop(heap)
        return None


class _RunState:
    """Mid-run loop state (pending arrivals, held work, finishes).

    Hoisting the ``run`` loop's locals into an object is what makes a
    run *snapshotable*: everything the next tick depends on lives here
    or on the replicas/router/autoscaler, never in a stack frame.

    The stream is a :class:`RequestTable`; pending arrivals drain
    through an arrival-ordered cursor (flat lists plus a head index),
    and the replicas write outcomes into one run-wide
    :class:`OutcomeLog`.
    """

    def __init__(self, table: RequestTable, outcomes: OutcomeLog,
                 tick_s: float, peak: int,
                 chaos: _ChaosState | None) -> None:
        order = table.arrival_order()
        arrivals = table.arrival_s[order]
        self.table = table
        self.outcomes = outcomes
        self.prompts = table.scalar_columns().prompt_tokens
        self.pending_arrivals: list[float] = arrivals.tolist()
        self.pending_rows: list[int] = order.tolist()
        self.pending_head = 0
        self.held: list[int] = []  # rows arrived but unroutable
        self.start = float(arrivals[0])
        self.now = (self.start // tick_s) * tick_s
        self.peak = peak
        self.chaos = chaos
        #: Whether :meth:`FleetSimulator.run_tick` defers its
        #: post-routing step (``run()`` only; never snapshotted).
        self.defer = False
        #: Horizon the busy replicas are owed a step to, if any.
        self.owed_s: float | None = None


class FleetSimulator:
    """Discrete-event simulation of a replicated serving fleet.

    Args:
        specs: Initial fleet composition — one replica per entry,
            provisioned ready at time zero (heterogeneous fleets are
            expressed by mixing specs).
        router: Routing policy (default: least-outstanding).
        autoscaler: Optional reactive autoscaler; scale-ups clone
            ``scale_spec`` (default: the first spec).
        scale_spec: Spec the autoscaler provisions.
        tick_s: Shared-clock quantum.
        faults: Fault timeline to inject — a
            :class:`~repro.faults.schedule.FaultSchedule`, replayed
            through a fresh injector every ``run``.
        retry_policy: Per-request timeout + seeded backoff; without it
            crash-evacuated requests still requeue (immediately, with
            unbounded attempts) so nothing is lost.
        degradation: What to do with work the fleet cannot route within
            ``max_hold_s`` — shed by priority, or spill onto emergency
            replicas of another backend.

    Supplying any of the three arms the chaos path; leaving all three
    ``None`` runs the exact fault-free instruction sequence.
    """

    def __init__(self, specs: list[ReplicaSpec], router: Router | None = None,
                 autoscaler: ReactiveAutoscaler | None = None,
                 scale_spec: ReplicaSpec | None = None,
                 tick_s: float = DEFAULT_TICK_S,
                 faults: FaultSchedule | None = None,
                 retry_policy: RetryPolicy | None = None,
                 degradation: DegradationPolicy | None = None) -> None:
        if not specs:
            raise ValueError("at least one initial replica spec required")
        guards.finite("tick_s", tick_s, gt=0)
        self.router = router or LeastOutstandingRouter()
        self.autoscaler = autoscaler
        self.scale_spec = scale_spec or specs[0]
        self.tick_s = tick_s
        self.faults = faults
        self.retry_policy = retry_policy
        self.degradation = degradation
        self._chaos = (faults is not None or retry_policy is not None
                       or degradation is not None)
        self.attestation = FleetAttestation() if self._chaos else None
        #: Resilience bookkeeping of the most recent ``run`` (chaos only).
        self.last_chaos: _ChaosState | None = None
        #: In-progress incremental run (``begin_run``/``run_tick``).
        self._run: _RunState | None = None
        self._initial_specs = list(specs)
        self.replicas: list[Replica] = []
        self._reindex()
        for spec in specs:
            self._provision(spec, provisioned_s=0.0, boot_latency_s=0.0)

    def _provision(self, spec: ReplicaSpec, provisioned_s: float,
                   boot_latency_s: float, origin: str = "initial") -> Replica:
        replica = Replica(replica_id=len(self.replicas), spec=spec,
                          provisioned_s=provisioned_s,
                          boot_latency_s=boot_latency_s, origin=origin)
        self.replicas.append(replica)
        self._active_count += 1
        self._rewake(replica, math.inf)
        self._moved = None
        if self._run is not None:
            replica.scheduler.bind(self._run.table, self._run.outcomes)
        if self.attestation is not None and needs_attestation(spec.kind):
            self.attestation.enroll(replica.replica_id)
        return replica

    # -- derived indexes --------------------------------------------------------
    #
    # What lets a tick cost O(busy replicas + due edges + routed rows)
    # instead of O(fleet): the busy set, wake heap, draining set and
    # active count here, the flight heap on the chaos state, and the
    # moved set the router's load heap is re-keyed from.  None is
    # snapshotted; each is rebuilt from replica and run state in
    # ``begin_run`` and ``from_state``.

    def _reindex(self) -> None:
        """Rebuild the fleet's derived indexes from replica state."""
        #: Ids of the replicas a step can change: exactly the active
        #: ones with work or a pending hang.
        self._busy: set[int] = set()
        #: ``(edge_s, replica_id)`` per lifecycle edge (see
        #: ``Replica._wake_edges``); entries whose edge the replica no
        #: longer lists are dropped when they surface.
        self._wake: list[tuple[float, int]] = []
        #: Ids of draining replicas, the only ones that can retire.
        self._draining: set[int] = set()
        #: Replicas not retired or failed (``len(self.active)``).
        self._active_count = 0
        #: Replica ids whose routing key may have moved since the last
        #: ``assign``; ``None`` after a lifecycle or routability change.
        self._moved: set[int] | None = None
        for replica in self.replicas:
            replica_id = replica.replica_id
            for edge in replica._wake_edges():
                self._wake.append((edge, replica_id))
            if replica.active:
                self._active_count += 1
                if replica.needs_step:
                    self._busy.add(replica_id)
            if replica.state == DRAINING:
                self._draining.add(replica_id)
        heapify(self._wake)

    def _rewake(self, replica: Replica, upto: float) -> None:
        """Push ``replica``'s lifecycle edges at or before ``upto``."""
        for edge in replica._wake_edges():
            if edge <= upto:
                heappush(self._wake, (edge, replica.replica_id))

    def _pop_wake(self, now: float) -> list[int]:
        """Pop every wake entry due by ``now``: their replica ids, in
        id order."""
        wake = self._wake
        if not wake or wake[0][0] > now:
            return []
        due = set()
        while wake and wake[0][0] <= now:
            due.add(heappop(wake)[1])
        return sorted(due)

    def _disturbed(self, replica: Replica) -> None:
        """A fault landed on ``replica``: wake on its new edges, step it
        only if it now hangs (an evacuated one has nothing to do), and
        rebuild the router's load heap."""
        self._rewake(replica, math.inf)
        if replica.active and replica.needs_step:
            self._busy.add(replica.replica_id)
        else:
            self._busy.discard(replica.replica_id)
        self._moved = None

    # -- views ----------------------------------------------------------------

    @property
    def live(self) -> list[Replica]:
        return [r for r in self.replicas if r.state == LIVE]

    @property
    def active(self) -> list[Replica]:
        return [r for r in self.replicas if r.active]

    def _outstanding(self) -> int:
        return sum(r.outstanding for r in self.replicas)

    # -- autoscaling ----------------------------------------------------------

    def _autoscale(self, now: float, queued: int = 0) -> None:
        if self.autoscaler is None:
            return
        delta = self.autoscaler.decide(
            now, outstanding=self._outstanding() + queued,
            live_replicas=len(self.live),
            active_replicas=len(self.active))
        if delta > 0:
            self._provision(self.scale_spec, provisioned_s=now,
                            boot_latency_s=self.autoscaler.config.boot_latency_s,
                            origin="scale")
        elif delta < 0 and self.live:
            # Drain the least-loaded live replica (highest id on ties:
            # prefer retiring the newest instance).
            victim = min(self.live,
                         key=lambda r: (r.outstanding, -r.replica_id))
            victim.drain()
            self._draining.add(victim.replica_id)
            self._moved = None

    # -- fault application -----------------------------------------------------

    def _apply_fault(self, event: FaultEvent, now: float,
                     state: _ChaosState) -> str:
        """Land one due fault on its target; returns the effect log."""
        if event.replica_id >= len(self.replicas):
            return "no-op: no such replica"
        replica = self.replicas[event.replica_id]
        if event.kind == "crash":
            if replica.state in (FAILED, RETIRED):
                return f"no-op: replica already {replica.state}"
            evacuated = replica.crash(now, event.restart_after_s)
            self._active_count -= 1
            self._disturbed(replica)
            for row, generated in evacuated:
                state.flights.pop(row, None)
                state.requeue_or_shed(row, now, generated)
            return f"crash: evacuated {len(evacuated)} requests"
        if event.kind == "hang":
            if replica.state not in (LIVE, DRAINING):
                return f"no-op: replica {replica.state}"
            replica.hang(now + event.duration_s)
            self._disturbed(replica)
            return f"hang until {now + event.duration_s:g}s"
        if event.kind in ("slowdown", "link_degrade"):
            if replica.state not in (LIVE, DRAINING):
                return f"no-op: replica {replica.state}"
            if event.kind == "slowdown":
                factor = event.factor
            else:
                factor = link_slowdown_factor(event.factor, event.comm_share)
            replica.slow(now + event.duration_s, factor)
            self._disturbed(replica)
            return f"{event.kind}: x{factor:.3f} until {now + event.duration_s:g}s"
        if event.kind == "boot_failure":
            penalty = event.duration_s or DEFAULT_DURATION_S
            effect = replica.boot_failure(penalty)
            self._disturbed(replica)
            return f"boot_failure: {effect}"
        # attestation_failure
        if not needs_attestation(replica.spec.kind):
            return f"no-op: {replica.spec.kind} replica does not attest"
        if replica.state in (FAILED, RETIRED):
            return f"no-op: replica already {replica.state}"
        assert self.attestation is not None
        self.attestation.revoke(replica.replica_id)
        # Phased-boot replicas restart the boot sequence from the
        # ATTESTING phase (quote, key release, decrypt, load — the
        # already-provisioned instance is kept); legacy replicas pay
        # the event's flat outage window.  Mid-boot and live failures
        # alike: the enclave's contents are no longer trusted.
        reattest_s = replica.reattest_s
        outage_s = event.duration_s if reattest_s is None else reattest_s
        evacuated = replica.begin_attestation(now + outage_s)
        self._disturbed(replica)
        for row, generated in evacuated:
            state.flights.pop(row, None)
            state.requeue_or_shed(row, now, generated)
        return (f"attestation revoked: evacuated {len(evacuated)} requests, "
                f"re-attest at {now + outage_s:g}s")

    def _chaos_tick(self, now: float, state: _ChaosState) -> None:
        """Pre-routing chaos phase: expiries, reboots, due faults.

        Only replicas with a wake edge due by ``now`` can expire a
        slowdown or restart; each is visited once, in id order.  Edges
        that did not fire go back on the heap, and a restart pushes its
        readiness edge.
        """
        replicas = self.replicas
        for replica_id in self._pop_wake(now):
            replica = replicas[replica_id]
            replica.expire_faults(now)
            restarted = replica.restart_if_due(now)
            if restarted:
                self._active_count += 1
            self._rewake(replica, math.inf if restarted else now)
        for event in state.injector.due(now):
            state.injector.record(event, now, self._apply_fault(event, now,
                                                                state))

    def _activate_due(self, now: float, state: _ChaosState | None) -> None:
        """Lifecycle phase: admit replicas whose boot or re-attestation
        completed by ``now``, in id order.  Only replicas with a wake
        edge due can; edges that did not fire go back on the heap."""
        replicas = self.replicas
        for replica_id in self._pop_wake(now):
            replica = replicas[replica_id]
            before = replica.state
            if state is not None:
                self._chaos_activate(replica, now)
            replica.activate_if_ready(now)
            if replica.state != before:
                self._moved = None
            self._rewake(replica, now)

    def _catch_up(self) -> None:
        """Step the busy replicas to the owed horizon, if one is owed.

        Inside :meth:`run` the step that ends a tick and the step that
        ends a quiet-tick jump are deferred: only the horizon is kept,
        and a later jump overwrites it, since ``step(t1); step(t2) ==
        step(t2)`` when nothing reads or submits in between.  Every
        reader of replica state calls this first.
        """
        run = self._run
        if run is not None and run.owed_s is not None:
            owed, run.owed_s = run.owed_s, None
            self._step_busy(owed, run.chaos)

    def _step_busy(self, now: float, state: _ChaosState | None) -> None:
        """Step the busy replicas a step to ``now`` can change, in id
        order, and drop the ones left with nothing to do.

        Stepping an idle, unhung replica is an exact no-op, so the rest
        of the fleet is never visited.  So is stepping an unhung one
        whose clock is already at or past ``now`` (a prefill or decode
        step outlasted the tick): the scheduler's loop stops on
        ``clock >= horizon`` before it acts, so nothing finishes, no
        routing key moves and the replica stays busy.  A hung replica
        is always stepped, since lifting its hang is a state change.
        """
        busy = self._busy
        replicas = self.replicas
        for replica_id in sorted(busy):
            replica = replicas[replica_id]
            hung = replica._hang_until_s is not None
            if not hung and replica.scheduler.clock_s >= now:
                continue
            finished = replica.step(now)
            if state is not None:
                state.land(finished)
            if hung and replica._hang_until_s is None:
                self._moved = None  # the hang lifted: routable again
            elif self._moved is not None:
                self._moved.add(replica_id)
            if not replica.needs_step:
                busy.discard(replica_id)

    def _retire_drained(self, now: float) -> None:
        """Retire draining replicas whose queue emptied."""
        draining = self._draining
        for replica_id in sorted(draining):
            replica = self.replicas[replica_id]
            replica.retire_if_drained(now)
            if replica.state != DRAINING:
                draining.discard(replica_id)
                if replica.state == RETIRED:
                    self._active_count -= 1
                    self._busy.discard(replica_id)

    def _chaos_activate(self, replica: Replica, now: float) -> None:
        """Attestation gate: TEE replicas re-attest before readmission."""
        assert self.attestation is not None
        if replica.state == ATTESTING and now >= replica.ready_s:
            if self.attestation.readmit(replica.replica_id):
                replica.complete_attestation()
        elif (replica.state == BOOTING and now >= replica.ready_s
                and needs_attestation(replica.spec.kind)):
            # Reboot completing: run the full quote/verify flow (it is
            # deterministic and instant in simulated time) before
            # activate_if_ready flips the replica live.
            self.attestation.readmit(replica.replica_id)

    def _check_timeouts(self, now: float, state: _ChaosState) -> None:
        """Cancel and retry in-flight requests older than the timeout.

        ``now - routed_s`` is monotone in ``routed_s``, so the expired
        flights are a prefix of the flight heap.  An owed step is paid
        only when the oldest current flight has expired: a flight it
        would land must not be cancelled.
        """
        if state.retry is None:
            return
        timeout_s = state.retry.timeout_s
        oldest = state.oldest_flight_s()
        if oldest is None or now - oldest <= timeout_s:
            return
        self._catch_up()
        heap, flights = state.flight_heap, state.flights
        expired = []
        while heap and now - heap[0][0] > timeout_s:
            routed_s, row = heappop(heap)
            flight = flights.get(row)
            if flight is not None and flight[1] == routed_s:
                expired.append(row)
        # Rows are in request-id order: cancel in id order.
        for row in sorted(expired):
            replica, routed_s = flights[row]
            generated = replica.cancel(row)
            if generated is None:
                # Completed within this very tick: checked again next.
                heappush(heap, (routed_s, row))
                continue
            if self._moved is not None:
                self._moved.add(replica.replica_id)
            if not replica.needs_step:
                self._busy.discard(replica.replica_id)
            del flights[row]
            state.requeue_or_shed(row, now, generated)

    def _degrade(self, now: float, held: list[int],
                 state: _ChaosState) -> list[int]:
        """Apply the degradation policy to overdue unroutable rows."""
        policy = state.degradation
        if policy is None:
            return held
        overdue = [row for row in held
                   if now - state.held_since.get(row, now)
                   > policy.max_hold_s]
        if not overdue:
            return held
        if policy.mode == "spill":
            # Provision one emergency instance per tick until capped;
            # the overdue work keeps waiting for it to boot.
            if state.spilled < policy.max_spill:
                spec = policy.spill_spec or self.scale_spec
                self._provision(spec, provisioned_s=now,
                                boot_latency_s=policy.spill_boot_s,
                                origin="spill")
                state.spilled += 1
            return held
        # Shed mode: lowest priority goes first, then earliest arrival,
        # then lowest id (row).
        priority, arrival = state.table.priority, state.table.arrival_s
        victims = sorted(overdue, key=lambda row: (int(priority[row]),
                                                   float(arrival[row]), row))
        for row in victims:
            state.shed_request(row, now, "degraded")
        shed = set(victims)
        return [row for row in held if row not in shed]

    def _shed_unroutable(self, now: float, held: list[int],
                         state: _ChaosState) -> list[int]:
        """Liveness guard: when no replica can ever serve again (all
        dead with no reboot pending, no autoscaler, spill exhausted),
        shed all queued work instead of ticking forever."""
        if not (held or state.retry_queue):
            return held
        if self.autoscaler is not None:
            return held
        if self._active_count or any(r.restart_pending
                                     for r in self.replicas):
            return held
        policy = state.degradation
        if (policy is not None and policy.mode == "spill"
                and state.spilled < policy.max_spill):
            return held
        for row in held:
            state.shed_request(row, now, "unroutable")
        for row in state.retry_queue.drain():
            state.shed_request(row, now, "unroutable")
        return []

    # -- event loop -----------------------------------------------------------

    def _make_injector(self) -> FaultInjector:
        return FaultInjector(self.faults if self.faults is not None
                             else FaultSchedule.empty())

    def begin_run(self, requests: Sequence[ServeRequest] | RequestTable,
                  ) -> None:
        """Install a request stream and arm the event loop.

        Splits :meth:`run` into an incremental form — ``begin_run``,
        then :meth:`run_tick` while :attr:`run_active`, then
        :meth:`finish_run` — so a checkpoint can capture the loop
        between any two ticks.  :meth:`run` composes exactly these
        calls, plus quiet-tick jumps that leave the report unchanged.

        A hand-built ``list[ServeRequest]`` is converted once with
        :meth:`RequestTable.from_requests`; the generators in
        :mod:`repro.fleet.arrivals` return tables directly, so a
        million-request stream never exists as an object list.  Every
        replica's scheduler is bound to the table and to one fresh
        :class:`OutcomeLog`.

        Raises:
            ValueError: On an empty stream, if a run is in progress, or
                if some request fits no replica spec the fleet can
                provision (it names the first such request).
        """
        if not len(requests):
            raise ValueError("no requests")
        if self._run is not None:
            raise ValueError("a run is already in progress; finish_run() "
                             "or restore into a fresh simulator")
        table = (requests if isinstance(requests, RequestTable)
                 else RequestTable.from_requests(requests))
        outcomes = OutcomeLog(len(table))
        for replica in self.replicas:
            replica.scheduler.bind(table, outcomes)
        self._check_servable(table)
        state: _ChaosState | None = None
        if self._chaos:
            state = _ChaosState(self._make_injector(), self.retry_policy,
                                self.degradation, table)
            self.last_chaos = state
            # TEE replicas attest before serving their first request.
            for replica in self.replicas:
                if needs_attestation(replica.spec.kind):
                    assert self.attestation is not None
                    self.attestation.readmit(replica.replica_id)
        self._reindex()
        self._run = _RunState(table, outcomes, self.tick_s,
                              self._active_count, state)

    def _check_servable(self, table: RequestTable) -> None:
        """Refuse a stream with a row that no replica spec the fleet
        can provision (its replicas, the autoscaler's and the spill
        spec) can ever admit, before any tick runs.  The replicas must
        be bound to ``table``: the first one words the refusal."""
        schedulers = [replica.scheduler for replica in self.replicas]
        extra = []
        if self.autoscaler is not None:
            extra.append(self.scale_spec)
        policy = self.degradation
        if policy is not None and policy.mode == "spill":
            extra.append(policy.spill_spec or self.scale_spec)
        schedulers += [spec.build_scheduler() for spec in extra]
        # Replicas of one spec share one mask object.
        masks = {id(mask): mask for mask in
                 (scheduler.admissible(table) for scheduler in schedulers)}
        servable = np.zeros(len(table), dtype=np.uint8)
        for mask in masks.values():
            servable |= np.frombuffer(mask, dtype=np.uint8)
        refused = np.flatnonzero(servable == 0)
        if len(refused):
            try:
                schedulers[0]._check_fits(int(refused[0]))
            except ValueError as error:
                raise ValueError(f"{error}; no replica spec of this fleet "
                                 f"can serve it") from None

    @property
    def run_active(self) -> bool:
        """Whether the armed run still has work for another tick."""
        run = self._run
        if run is None:
            return False
        state = run.chaos
        if (run.pending_head < len(run.pending_arrivals) or run.held
                or (state is not None and state.retry_queue)):
            return True
        self._catch_up()
        replicas = self.replicas
        return any(replicas[replica_id].outstanding
                   for replica_id in self._busy)

    @property
    def run_clock_s(self) -> float:
        """Shared clock of the armed run (last completed tick)."""
        if self._run is None:
            raise ValueError("no run in progress")
        return self._run.now

    def run_tick(self) -> None:
        """Advance the armed run by one shared-clock tick.

        On return every busy replica has been stepped to the tick,
        except inside :meth:`run`, which defers that step to the next
        reader (see :meth:`_catch_up`).
        """
        run = self._run
        if run is None:
            raise ValueError("no run in progress; call begin_run() first")
        self._catch_up()
        state = run.chaos
        run.now += self.tick_s
        now = run.now
        if state is not None:
            self._chaos_tick(now, state)
            self._autoscale(now, queued=len(run.held) + len(state.retry_queue))
        else:
            self._autoscale(now)
        self._activate_due(now, state)

        due = run.held
        run.held = []
        arrivals = run.pending_arrivals
        head, end = run.pending_head, len(arrivals)
        stop = head
        while stop < end and arrivals[stop] <= now:
            stop += 1
        due += run.pending_rows[head:stop]
        run.pending_head = stop
        if state is not None:
            due += state.retry_queue.pop_due(now)
        if due:
            self.router._note_moved(self._moved)
            self._moved = set()
            try:
                picks = self.router.assign(map(run.prompts.__getitem__, due),
                                           self.replicas, now)
            except ValueError:
                # Nothing live yet: routability cannot change while a
                # tick routes, so every due row waits for the next tick.
                run.held = due
                if state is not None:
                    for row in due:
                        state.held_since.setdefault(row, now)
            else:
                # The router plans every pick before any submit; then
                # each picked replica takes its rows in one call, in
                # due order.  Outside the try: a submit error (a request
                # that can never fit the KV pool) must propagate, not
                # hold.
                busy = self._busy
                if len(due) == 1:
                    # Unpacking runs the picks to their end: cheaper
                    # than closing a suspended generator.
                    [replica] = picks
                    replica.submit_rows(due)
                    busy.add(replica.replica_id)
                    picks = (replica,)
                else:
                    picks = list(picks)
                    batches: dict[Replica, list[int]] = {}
                    for row, replica in zip(due, picks):
                        rows = batches.get(replica)
                        if rows is None:
                            batches[replica] = [row]
                        else:
                            rows.append(row)
                    for replica, rows in batches.items():
                        replica.submit_rows(rows)
                        busy.add(replica.replica_id)
                if state is not None:
                    for row, replica in zip(due, picks):
                        state.held_since.pop(row, None)
                        made = state.attempts.get(row, 0) + 1
                        state.attempts[row] = made
                        if made > 1:
                            state.retries += 1
                        state.flights[row] = (replica, now)
                        if state.retry is not None:
                            heappush(state.flight_heap, (now, row))

        if run.defer:
            run.owed_s = now
        else:
            self._step_busy(now, state)
        if self._draining:
            self._retire_drained(now)
        run.peak = max(run.peak, self._active_count)

        if state is not None:
            self._check_timeouts(now, state)
            run.held = self._degrade(now, run.held, state)
            run.held = self._shed_unroutable(now, run.held, state)

    # -- quiet-tick jumping ---------------------------------------------------

    def _next_wake_s(self, run: _RunState) -> float | None:
        """Earliest instant ``t`` at which a tick could *act* on an edge
        tested as ``t >= edge``.

        A tick acts when it routes work, applies a fault, crosses a
        lifecycle edge, or fires a timeout.  All but the timeout are
        time-anchored edges the acting code tests as ``edge <= now``
        (or ``now >= edge``): the next pending arrival, the earliest
        retry due, the injector's next event, each replica's
        boot/attest readiness, scheduled restart, hang expiry and
        slowdown expiry.  Flight timeouts are tested by subtraction and
        handled by :meth:`_skip_quiet_ticks` itself.  Returns ``None``
        when no such edge exists.
        """
        state = run.chaos
        candidates: list[float] = []
        wake, replicas = self._wake, self.replicas
        while wake:
            edge, replica_id = wake[0]
            if edge in replicas[replica_id]._wake_edges():
                candidates.append(edge)
                break
            heappop(wake)  # the transition that set this edge was undone
        if run.pending_head < len(run.pending_arrivals):
            candidates.append(run.pending_arrivals[run.pending_head])
        if state is not None:
            retry_due = state.retry_queue.next_due_s
            if retry_due is not None:
                candidates.append(retry_due)
            injector_due = state.injector.next_due_s
            if injector_due is not None:
                candidates.append(injector_due)
        return min(candidates) if candidates else None

    #: Ticks jumped per chunk when nothing external is ever due again
    #: and only in-flight decode work remains (pure drain).
    _DRAIN_CHUNK_TICKS = 4096

    def _skip_quiet_ticks(self) -> None:
        """Jump the clock over ticks that provably cannot act.

        The skipped ticks' only observable work — stepping the replicas
        that have work — becomes one composed ``step`` call per replica
        to the landing tick (the scheduler's step/run parity contract
        makes the composition exact, under every admission policy: SCFQ
        tags are fixed at submit and nothing is submitted in a quiet
        stretch).  The step is owed, not taken: the next reader pays it
        through :meth:`_catch_up`, and the tick's own deferred step,
        if any, is dropped.  :meth:`run_tick` then executes the next
        tick normally.
        ``run.now`` advances by repeated ``+= tick_s``, so float
        accumulation stays bit-identical, and lands on the *last* grid
        value at which no wake condition holds yet: each candidate tick
        is tested with the comparison its acting code uses
        (``edge <= now`` for the :meth:`_next_wake_s` edges,
        ``now - routed_s > timeout_s`` for flight timeouts).  The tick
        that wakes therefore runs at exactly the clock value a plain
        ``run_tick`` loop would have used.  When only in-flight work
        keeps the run alive, the jump lands one tick earlier: the run
        may end inside the stretch, where a plain loop stops before the
        wake tick acts.

        The wake edge comes from the top of the wake heap and the oldest
        flight from the top of the flight heap, and only busy replicas
        are stepped, so a jump costs O(busy replicas), not O(fleet).
        Both are read without catching up.  An owed step can only land
        flights and lift hangs, so a stale read sees an older flight or
        an earlier hang expiry: it can shorten a jump, never lengthen it.

        Conservative no-jump conditions (ticks could act in ways that
        are not time-peekable): an armed autoscaler (decides on queue
        depth every tick) or held work (rerouted every tick).  Draining
        replicas exist only under an autoscaler, so they are covered.
        """
        run = self._run
        if run is None:
            return
        if self.autoscaler is not None or run.held:
            return
        wake = self._next_wake_s(run)
        state = run.chaos
        oldest = None
        if state is not None and state.retry is not None:
            # The oldest flight times out first: now - routed_s is
            # monotone in routed_s.
            timeout_s = state.retry.timeout_s
            oldest = state.oldest_flight_s()
        tick = self.tick_s
        now = run.now
        if wake is None and oldest is None:
            for _ in range(self._DRAIN_CHUNK_TICKS):
                now += tick
        else:
            edge = math.inf if wake is None else wake
            before = now
            while True:
                ahead = now + tick
                if ahead >= edge or (oldest is not None
                                     and ahead - oldest > timeout_s):
                    break
                before, now = now, ahead
            if (run.pending_head == len(run.pending_arrivals)
                    and not (state is not None and state.retry_queue)):
                # The run may end inside the stretch: land one tick
                # short, so the tick run() executes next is still quiet.
                now = before
            if now == run.now:
                return
        if wake is not None and now >= wake:
            return  # float-accumulation safety net: tick normally instead
        run.now = now
        run.owed_s = now

    def finish_run(self) -> FleetReport:
        """Close out a completed run and build its report.

        Raises:
            ValueError: If no run is armed or work remains.
        """
        run = self._run
        if run is None:
            raise ValueError("no run in progress")
        if self.run_active:  # catches up any owed step when it is done
            raise ValueError("run still has outstanding work; keep ticking")
        state = run.chaos
        # Replica clocks may overshoot the final tick; the fleet ends
        # when the last request completes.
        last_finish = run.outcomes.max_finish_s()
        end = run.now if last_finish is None else last_finish
        usages = tuple(
            ReplicaUsage(
                replica_id=r.replica_id, kind=r.spec.kind,
                price_hr=r.spec.price_hr, provisioned_s=r.provisioned_s,
                retired_s=r.retired_s,
                billed_hours=r.billed_hours(end), cost_usd=r.cost_usd(end),
                requests_served=r.requests_routed, tokens_out=r.tokens_out,
                crashes=r.crashes,
                prefix_hits=r.scheduler.prefix_hits,
                prefix_misses=r.scheduler.prefix_misses)
            for r in self.replicas)
        report = FleetReport(
            outcomes=ColumnarOutcomes.finished(run.table, run.outcomes),
            start_s=run.start, end_s=end, replicas=usages,
            scale_events=tuple(self.autoscaler.events)
            if self.autoscaler else (),
            total_preemptions=sum(r.scheduler.preemptions
                                  for r in self.replicas),
            peak_replicas=run.peak,
            retries=state.retries if state else 0,
            wasted_tokens=state.wasted_tokens if state else 0,
            shed=state.shed if state else (),
            fault_events=tuple(state.injector.applied) if state else ())
        self._run = None
        return report

    def run(self, requests: Sequence[ServeRequest] | RequestTable,
            ) -> FleetReport:
        """Serve a request stream to completion across the fleet.

        Quiet stretches of the tick grid are jumped (see
        :meth:`_skip_quiet_ticks`); the report is bit-identical to
        ticking through them.

        Raises:
            ValueError: On an empty stream, or when a request can never
                fit any replica's KV pool.
        """
        self.begin_run(requests)
        # An autoscaler reads every replica's load each tick, so its
        # fleets step eagerly.
        self._run.defer = self.autoscaler is None
        while self.run_active:
            self._skip_quiet_ticks()
            self.run_tick()
        return self.finish_run()

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> dict:
        """Plain-dict snapshot of the whole fleet, mid-run or idle.

        The stream is serialized once, as columns, and the run's
        outcome log once, as columns; the arrival cursor is a head index
        (the order is recomputed on restore), and the held list, retry
        heap, flight table, shed ledger and every scheduler reference
        requests by row.  Replicas carry their spec fingerprints;
        restore rebuilds each instance from the *host* simulator's specs
        (selected by the replica's ``origin``) and refuses a mismatch,
        so deployments and price catalogs never need to be serialized.
        """
        self._catch_up()
        run = self._run
        run_state = None
        if run is not None:
            chaos_state = None
            state = run.chaos
            if state is not None:
                chaos_state = {
                    "injector": state.injector.to_state(),
                    "flights": {str(row): [replica.replica_id, routed_s]
                                for row, (replica, routed_s)
                                in state.flights.items()},
                    "attempts": {str(row): count for row, count
                                 in state.attempts.items()},
                    "retry_heap": state.retry_queue.to_state(),
                    "held_since": {str(row): since for row, since
                                   in state.held_since.items()},
                    "shed": state.shed.to_state(),
                    "wasted_tokens": state.wasted_tokens,
                    "retries": state.retries,
                    "spilled": state.spilled,
                }
            run_state = {
                "start_s": run.start,
                "now_s": run.now,
                "peak": run.peak,
                "chaos": chaos_state,
                "requests_table": run.table.to_state(),
                "pending_head": run.pending_head,
                "held": list(run.held),
                "outcomes": run.outcomes.to_state(),
            }
        return {
            "tick_s": self.tick_s,
            "chaos_armed": self._chaos,
            "initial_replicas": len(self._initial_specs),
            "replicas": [replica.to_state() for replica in self.replicas],
            "router": self.router.to_state(),
            "autoscaler": (self.autoscaler.to_state()
                           if self.autoscaler is not None else None),
            "attestation": (self.attestation.to_state()
                            if self.attestation is not None else None),
            "run": run_state,
        }

    def _spec_for_origin(self, origin: str, replica_id: int) -> ReplicaSpec:
        """The spec pool a replica of ``origin`` was provisioned from."""
        from ..state.errors import StateIntegrityError
        if origin == "initial":
            if replica_id >= len(self._initial_specs):
                raise StateIntegrityError(
                    f"replica {replica_id} claims origin 'initial' but the "
                    f"fleet was built with {len(self._initial_specs)} specs")
            return self._initial_specs[replica_id]
        if origin == "scale":
            return self.scale_spec
        if self.degradation is not None \
                and self.degradation.spill_spec is not None:
            return self.degradation.spill_spec
        return self.scale_spec

    def from_state(self, state: dict) -> None:
        """Install a :meth:`to_state` snapshot into this simulator.

        The simulator must be freshly built with the same constructor
        arguments (specs, router policy, autoscaler config, tick, fault
        schedule, retry/degradation policies) the snapshot was taken
        under; fingerprints on every layer enforce this.

        Raises:
            repro.state.errors.StateIntegrityError: On any mismatch
                between the snapshot and this simulator's configuration,
                or when the simulator has already run.
        """
        from ..state.errors import StateIntegrityError
        from ..state.schema import require, require_finite

        if self._run is not None or len(self.replicas) \
                != len(self._initial_specs):
            raise StateIntegrityError(
                "restore target must be a freshly built simulator")
        tick_s = require_finite(state, "tick_s", "$.fleet", minimum=0.0)
        if tick_s != self.tick_s:
            raise StateIntegrityError(
                f"snapshot tick {tick_s:g}s != simulator tick "
                f"{self.tick_s:g}s")
        if require(state, "chaos_armed", bool, "$.fleet") != self._chaos:
            raise StateIntegrityError(
                "snapshot and simulator disagree on whether the chaos "
                "machinery is armed")
        if require(state, "initial_replicas", int, "$.fleet") \
                != len(self._initial_specs):
            raise StateIntegrityError(
                "snapshot was taken on a fleet with a different initial "
                "replica count")

        # The run's table and outcome log come first: every restored
        # scheduler binds to them and re-marks its in-flight rows.
        run_state = state.get("run")
        run_columns = (None if run_state is None
                       else self._run_columns_from_state(run_state))
        replicas: list[Replica] = []
        for index, payload in enumerate(require(state, "replicas", list,
                                                "$.fleet")):
            origin = require(payload, "origin", str, "$.fleet.replicas")
            replica_id = require(payload, "replica_id", int,
                                 "$.fleet.replicas")
            if replica_id != index:
                raise StateIntegrityError(
                    f"replica ids not contiguous: slot {index} holds "
                    f"replica {replica_id}")
            spec = self._spec_for_origin(origin, replica_id)
            replicas.append(Replica.from_state(payload, spec, run_columns))
        self.replicas = replicas

        self.router.from_state(require(state, "router", dict, "$.fleet"))
        autoscaler_state = state.get("autoscaler")
        if (autoscaler_state is None) != (self.autoscaler is None):
            raise StateIntegrityError(
                "snapshot and simulator disagree on autoscaling")
        if self.autoscaler is not None:
            self.autoscaler.from_state(autoscaler_state)
        attestation_state = state.get("attestation")
        if (attestation_state is None) != (self.attestation is None):
            raise StateIntegrityError(
                "snapshot and simulator disagree on attestation")
        if self.attestation is not None:
            self.attestation.from_state(attestation_state)

        self._reindex()
        self._run = (None if run_columns is None
                     else self._run_from_state(run_state, *run_columns))

    @staticmethod
    def _run_columns_from_state(run_state: dict,
                                ) -> tuple[RequestTable, OutcomeLog]:
        """The armed run's request table and outcome log."""
        from ..state.errors import StateIntegrityError
        from ..state.schema import require

        table = RequestTable.from_state(
            require(run_state, "requests_table", dict, "$.fleet.run"))
        if not len(table):
            raise StateIntegrityError("armed run carries an empty "
                                      "request table")
        outcomes = OutcomeLog.from_state(
            require(run_state, "outcomes", dict, "$.fleet.run"), len(table))
        return table, outcomes

    def _chaos_from_state(self, chaos_payload: dict | None,
                          table: RequestTable,
                          check_row) -> _ChaosState | None:
        """Rebuild chaos bookkeeping from a snapshot.

        ``check_row(row, where)`` validates a serialized row of the
        run's table.
        """
        from ..state.errors import StateIntegrityError
        from ..state.schema import require

        if chaos_payload is None:
            if self._chaos:
                raise StateIntegrityError(
                    "simulator has fault machinery armed but the snapshot's "
                    "run carries no chaos state")
            return None
        if not self._chaos:
            raise StateIntegrityError(
                "snapshot carries chaos state but this simulator has "
                "no fault machinery armed")
        chaos = _ChaosState(self._make_injector(), self.retry_policy,
                            self.degradation, table)
        chaos.injector.from_state(
            require(chaos_payload, "injector", dict, "$.fleet.chaos"))
        for key, entry in require(chaos_payload, "flights", dict,
                                  "$.fleet.chaos").items():
            replica_id, routed_s = entry
            if not 0 <= replica_id < len(self.replicas):
                raise StateIntegrityError(
                    f"flight for request row {key} references unknown "
                    f"replica {replica_id}")
            chaos.flights[check_row(int(key), "flight table")] = (
                self.replicas[replica_id], float(routed_s))
        chaos.attempts = {check_row(int(key), "attempt table"): count
                          for key, count
                          in require(chaos_payload, "attempts", dict,
                                     "$.fleet.chaos").items()}
        chaos.retry_queue.from_state(
            require(chaos_payload, "retry_heap", list, "$.fleet.chaos"),
            lambda row: check_row(row, "retry heap"))
        chaos.held_since = {check_row(int(key), "held table"): float(since)
                            for key, since
                            in require(chaos_payload, "held_since", dict,
                                       "$.fleet.chaos").items()}
        chaos.shed = ShedLog.from_state(
            require(chaos_payload, "shed", list, "$.fleet.chaos"), table)
        chaos.wasted_tokens = require(chaos_payload, "wasted_tokens",
                                      int, "$.fleet.chaos")
        chaos.retries = require(chaos_payload, "retries", int,
                                "$.fleet.chaos")
        chaos.spilled = require(chaos_payload, "spilled", int,
                                "$.fleet.chaos")
        if chaos.retry is not None:
            chaos.flight_heap = sorted(
                (routed_s, row) for row, (_, routed_s)
                in chaos.flights.items())
        self.last_chaos = chaos
        return chaos

    def _run_from_state(self, run_state: dict, table: RequestTable,
                        outcomes: OutcomeLog) -> _RunState:
        """Rebuild an armed run from its snapshot."""
        from ..state.errors import StateIntegrityError
        from ..state.schema import require, require_finite

        def check_row(row: object, where: str) -> int:
            if (not isinstance(row, int) or isinstance(row, bool)
                    or not 0 <= row < len(table)):
                raise StateIntegrityError(
                    f"{where} references unknown request row {row!r}")
            return row

        chaos = self._chaos_from_state(run_state.get("chaos"), table,
                                       check_row)
        run = _RunState(table, outcomes, self.tick_s, self._active_count,
                        chaos)
        head = require(run_state, "pending_head", int, "$.fleet.run")
        if not 0 <= head <= len(table):
            raise StateIntegrityError(
                f"pending head {head} out of range for {len(table)} "
                f"requests")
        run.pending_head = head
        run.start = require_finite(run_state, "start_s", "$.fleet.run")
        run.now = require_finite(run_state, "now_s", "$.fleet.run")
        run.peak = require(run_state, "peak", int, "$.fleet.run")
        run.held = [check_row(row, "held list") for row
                    in require(run_state, "held", list, "$.fleet.run")]
        return run


def fixed_fleet(spec: ReplicaSpec, count: int,
                router: Router | None = None,
                tick_s: float = DEFAULT_TICK_S,
                faults: FaultSchedule | None = None,
                retry_policy: RetryPolicy | None = None,
                degradation: DegradationPolicy | None = None,
                ) -> FleetSimulator:
    """A homogeneous fixed-size fleet (the capacity-planning unit)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return FleetSimulator([spec] * count, router=router, tick_s=tick_s,
                          faults=faults, retry_policy=retry_policy,
                          degradation=degradation)
