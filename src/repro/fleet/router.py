"""Request routers: which replica serves the next arrival.

Routers see the live replica set and pick one per request, given only
the request's prompt length (the one request field any policy reads:
the cost/SLO router's TTFT estimate needs its prefill).  All
policies are deterministic (ties break on replica id) so fleet reports
are bit-reproducible.  The cost/SLO-aware policy encodes the paper's
economic finding directly: CPU TEEs (TDX) are the cheap tier and the
cGPU the fast tier, so route to the cheapest replica whose estimated
TTFT still clears the SLO and spill to faster, costlier replicas only
under SLO risk (Figs. 12-13 turned into a routing policy).

The fleet routes a tick's due requests in one call,
:meth:`Router.assign`: it raises ``ValueError`` at call time when no
replica is routable, then yields one replica per prompt.  The caller
takes every pick before it submits any row, then hands each picked
replica its rows in one ``Replica.submit_rows`` call.  So a policy
plans all of a tick's picks from the fleet as it was at call time plus
its own earlier picks, and must come out as if each pick had been
submitted before the next was made.  Such a submit raises the chosen
replica's ``outstanding`` by exactly one and its queued prefill by the
row's, and changes neither routability nor free KV blocks (blocks are
allocated at admission, inside ``step``).  So the least-outstanding,
KV-pressure and cost/SLO policies keep a heap of each routable
replica's key and bump the winner's count per pick, with the same
tie-break on replica id; their ``choose`` is a one-prompt ``assign``.
The base ``assign`` calls ``choose`` per prompt, the first at call
time, which round-robin keeps: it reads no load.  A tick with no due
requests makes no router call, so ``assign`` takes at least one
prompt.

The cost/SLO heap is keyed by price, then outstanding.  A pick walks
it in that order and stops at the first replica whose TTFT estimate
clears the budget, which is the cheapest safe replica; only when every
replica is at risk does it read them all.  An estimate is O(1) in
queue depth: each scheduler keeps its queued prefill as an exact
running total, so routing stays flat under backlog (see
``ContinuousBatchingScheduler.estimated_ttft_s``).  The router adds
the prefill of its own picks earlier in the call to that total as
exact integer units, so each estimate is bit-identical to the one
taken after submitting them.

The load heap lives across ticks.  Before routing, the fleet tells the
router (:meth:`Router._note_moved`) which replicas' keys may have moved
since its previous ``assign``: those stepped, cancelled from or
evacuated.  Only they are re-keyed, and their old entries are dropped
lazily.  Any lifecycle or routability change, a new run, a restore, or
a call that did not come through the fleet (no note) rebuilds the heap
from the replicas instead.  The heap is derived state, so router
snapshots are unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from heapq import heapify, heappop, heappush, heapreplace

from .. import guards
from .replica import Replica


class Router:
    """Base router: pick a live replica for each request."""

    name = "base"

    def choose(self, prompt_tokens: int, replicas: Sequence[Replica],
               now: float) -> Replica:
        """Pick a replica for a ``prompt_tokens`` request among routable
        candidates.

        Raises:
            ValueError: If no replica is routable.
        """
        raise NotImplementedError

    def assign(self, prompts: Iterable[int], replicas: Sequence[Replica],
               now: float) -> Iterator[Replica]:
        """One replica per prompt, for a tick's due requests in order.

        ``prompts`` must hold at least one prompt.  The picks are
        planned from the replicas as they are at call time plus this
        call's earlier picks, as if each pick had been submitted before
        the next; the caller takes every pick before it submits any
        row.

        Raises:
            ValueError: At call time, if no replica is routable.
        """
        prompts = iter(prompts)
        # The first pick precedes any submit, so it is made now;
        # ``choose`` raises when nothing is routable.
        first = self.choose(next(prompts), replicas, now)
        return self._choose_each(first, prompts, replicas, now)

    def _choose_each(self, picked: Replica, prompts: Iterator[int],
                     replicas: Sequence[Replica], now: float,
                     ) -> Iterator[Replica]:
        yield picked
        for prompt_tokens in prompts:
            yield self.choose(prompt_tokens, replicas, now)

    def _note_moved(self, moved: set[int] | None) -> None:
        """Hear, before an ``assign``, which replica ids' load may have
        changed since the previous one (``None``: anything may have).

        Policies that read the fleet afresh on every call ignore it.
        """

    @staticmethod
    def _routable(replicas: Sequence[Replica]) -> list[Replica]:
        candidates = [r for r in replicas if r.routable]
        if not candidates:
            raise ValueError("no routable replica")
        return candidates

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> dict:
        """Plain-dict snapshot; stateless policies carry only identity."""
        return {"name": self.name}

    def from_state(self, state: dict) -> None:
        """Install a snapshot; refuses a different policy's state."""
        from ..state.errors import StateIntegrityError
        from ..state.schema import require
        name = require(state, "name", str, "$.router")
        if name != self.name:
            raise StateIntegrityError(
                f"router snapshot is for policy {name!r}, "
                f"this fleet routes with {self.name!r}")


class RoundRobinRouter(Router):
    """Cycle through live replicas in id order (stateful cursor)."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, prompt_tokens: int, replicas: Sequence[Replica],
               now: float) -> Replica:
        candidates = sorted(self._routable(replicas),
                            key=lambda r: r.replica_id)
        chosen = candidates[self._next % len(candidates)]
        self._next += 1
        return chosen

    def to_state(self) -> dict:
        state = super().to_state()
        state["next"] = self._next
        return state

    def from_state(self, state: dict) -> None:
        from ..state.schema import require
        super().from_state(state)
        self._next = require(state, "next", int, "$.router")


class _LoadHeapRouter(Router):
    """Pick from a load heap of ``(pressure or price, outstanding, id)``
    keys that persists across ticks; by default, the least key wins.

    Heap entries are lists ``[pressure, outstanding, replica_id,
    stamp, replica]``, where a policy's ``pressure`` may be a price.
    Each routable replica has one current entry, which a pick bumps in
    place; the entries a re-key replaced stay in the heap and are
    skipped when they surface.  Stamps are unique per replica, so no
    two entries compare equal up to the replica.  Between rebuilds the
    routable set is fixed (a routability change forces a rebuild), so
    only replicas whose key may have moved are re-keyed, and only a
    changed key is pushed.
    """

    def __init__(self) -> None:
        #: The sequence the heap was built over; another forces a rebuild.
        self._replicas: Sequence[Replica] | None = None
        self._heap: list[list] = []
        #: Routable replica id -> its current heap entry.
        self._current: dict[int, list] = {}
        self._stamp = 0
        self._moved: set[int] | None = None

    def _key(self, replica: Replica) -> tuple[float, int]:
        """``(pressure or price, outstanding)`` of one routable
        replica."""
        raise NotImplementedError

    def _note_moved(self, moved: set[int] | None) -> None:
        self._moved = moved

    def choose(self, prompt_tokens: int, replicas: Sequence[Replica],
               now: float) -> Replica:
        return next(self.assign((prompt_tokens,), replicas, now))

    def assign(self, prompts: Iterable[int], replicas: Sequence[Replica],
               now: float) -> Iterator[Replica]:
        moved, self._moved = self._moved, None
        if moved is None or replicas is not self._replicas:
            self._replicas = replicas
            self._fill([r for r in replicas if r.routable])
        elif moved:
            self._rekey(moved)
        if not self._current:
            raise ValueError("no routable replica")
        return self._picks(prompts, now)

    def _picks(self, prompts: Iterable[int], now: float,
               ) -> Iterator[Replica]:
        """One pick per prompt from the current heap: its least entry."""
        return _pop_least(self._heap, self._current, prompts)

    def _fill(self, routable: list[Replica]) -> None:
        """A fresh heap with one current entry per routable replica."""
        key = self._key
        heap = [[*key(replica), replica.replica_id, 0, replica]
                for replica in routable]
        heapify(heap)
        self._heap = heap
        self._current = {entry[2]: entry for entry in heap}
        self._stamp = 0

    def _rekey(self, moved: set[int]) -> None:
        """Push a new current entry for each moved routable replica
        whose key changed."""
        heap, current, key = self._heap, self._current, self._key
        stamp = self._stamp
        for replica_id in moved:
            entry = current.get(replica_id)
            if entry is None:
                continue
            pressure, outstanding = key(entry[4])
            if pressure == entry[0] and outstanding == entry[1]:
                continue
            stamp += 1
            entry = [pressure, outstanding, replica_id, stamp, entry[4]]
            current[replica_id] = entry
            heappush(heap, entry)
        if stamp != self._stamp:
            self._stamp = stamp
            if len(heap) > 4 * len(current):
                # Mostly entries that are no longer current: compact.
                self._heap = [entry for entry in heap
                              if current[entry[2]] is entry]
                heapify(self._heap)


class LeastOutstandingRouter(_LoadHeapRouter):
    """Fewest queued-or-running requests wins (join-shortest-queue)."""

    name = "least-outstanding"

    def _key(self, replica: Replica) -> tuple[float, int]:
        return 0, replica.outstanding


class KvPressureRouter(_LoadHeapRouter):
    """Most free KV blocks wins; breaks ties on queue depth then id.

    Outstanding-request counts miss that a few long-context sequences
    can exhaust the paged-KV pool; routing on block pressure sends
    work where memory headroom is, reducing preemption storms.
    """

    name = "kv-pressure"

    def _key(self, replica: Replica) -> tuple[float, int]:
        return -replica.kv_free_fraction, replica.outstanding


class CostSloRouter(_LoadHeapRouter):
    """Prefer cheap replicas until TTFT SLO risk forces a spill.

    Args:
        slo_ttft_s: The TTFT service-level objective.
        risk_factor: Fraction of the SLO budget a candidate's estimated
            TTFT may consume before it is considered at risk (0.8 means
            spill once the estimate exceeds 80% of the SLO).
    """

    name = "cost-slo"

    def __init__(self, slo_ttft_s: float, risk_factor: float = 0.8) -> None:
        guards.finite("slo_ttft_s", slo_ttft_s, gt=0)
        guards.finite("risk_factor", risk_factor, gt=0, le=1)
        super().__init__()
        self.slo_ttft_s = slo_ttft_s
        self.risk_factor = risk_factor

    def _key(self, replica: Replica) -> tuple[float, int]:
        return replica.spec.price_hr, replica.outstanding

    def to_state(self) -> dict:
        state = super().to_state()
        state["slo_ttft_s"] = self.slo_ttft_s
        state["risk_factor"] = self.risk_factor
        return state

    def from_state(self, state: dict) -> None:
        from ..state.errors import StateIntegrityError
        from ..state.schema import require
        super().from_state(state)
        recorded = (require(state, "slo_ttft_s", float, "$.router"),
                    require(state, "risk_factor", float, "$.router"))
        if recorded != (self.slo_ttft_s, self.risk_factor):
            raise StateIntegrityError(
                f"cost-slo router snapshot was taken under different "
                f"knobs {recorded}, this router has "
                f"{(self.slo_ttft_s, self.risk_factor)}")

    def _picks(self, prompts: Iterable[int], now: float,
               ) -> Iterator[Replica]:
        """Per prompt, the cheapest replica whose TTFT estimate clears
        the budget (ties to the least loaded, then id); if none does,
        damage control: the least ``(estimate, id)``.

        Current entries are popped in ``(price, outstanding, id)``
        order, so the first safe one is the cheapest safe replica, and
        a pick that finds none has popped, and estimated, every
        routable replica exactly once.  The winner takes one more
        outstanding request, and every popped entry goes back.  Each
        estimate counts the prefill units of this call's earlier picks
        of that replica; a pick is folded into them only when another
        pick is asked for.  Routable replicas are live, so each is
        estimated by its scheduler directly (a booting replica's lead
        never applies).
        """
        heap, current = self._heap, self._current
        budget = self.slo_ttft_s * self.risk_factor
        #: Replica id -> prefill units picked for it earlier this call.
        pending: dict[int, int] = {}
        chosen = None
        for prompt_tokens in prompts:
            if chosen is not None:
                # Another pick: fold the previous one into its units.
                pending[chosen[2]] = (
                    pending.get(chosen[2], 0)
                    + chosen[4].scheduler.prefill_units(chosen_tokens))
            popped = []
            least = None
            while heap:
                entry = heappop(heap)
                if current[entry[2]] is not entry:
                    continue  # replaced by a re-key: drop it
                popped.append(entry)
                if pending:  # else the estimate's cached division
                    estimate = entry[4].scheduler.estimated_ttft_s(
                        prompt_tokens, now, pending.get(entry[2], 0))
                else:
                    estimate = entry[4].scheduler.estimated_ttft_s(
                        prompt_tokens, now)
                if estimate <= budget:
                    chosen = entry
                    break
                key = (estimate, entry[2])
                if least is None or key < least:
                    least, fallback = key, entry
            else:
                chosen = fallback
            chosen[1] += 1
            for entry in popped:
                heappush(heap, entry)
            chosen_tokens = prompt_tokens
            yield chosen[4]


def _pop_least(heap: list[list], current: dict[int, list],
               prompts: Iterable[int]) -> Iterator[Replica]:
    """Yield the heap's least current replica per prompt, counting each
    pick: its submit changes only ``outstanding``, so the winner's entry
    takes one more and sinks back into place.  Entries that are no
    longer current are dropped as they surface."""
    for _ in prompts:
        entry = heap[0]
        while current[entry[2]] is not entry:
            heappop(heap)
            entry = heap[0]
        entry[1] += 1
        heapreplace(heap, entry)
        yield entry[4]


#: Router names the CLI exposes.
ROUTER_KINDS = ("round-robin", "least-outstanding", "kv-pressure",
                "cost-slo")


def make_router(kind: str, slo_ttft_s: float = 2.0,
                risk_factor: float = 0.8) -> Router:
    """Build a router by name (CLI convenience)."""
    if kind == "round-robin":
        return RoundRobinRouter()
    if kind == "least-outstanding":
        return LeastOutstandingRouter()
    if kind == "kv-pressure":
        return KvPressureRouter()
    if kind == "cost-slo":
        return CostSloRouter(slo_ttft_s, risk_factor)
    raise ValueError(f"unknown router {kind!r}; "
                     f"expected one of {ROUTER_KINDS}")
