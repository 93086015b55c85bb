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
replica is routable, then yields one replica per prompt, and the
caller submits to each yielded replica before asking for the next.
Between two picks of one tick the only state change is that submit,
which raises the chosen replica's ``outstanding`` by exactly one and
changes neither routability nor free KV blocks (blocks are allocated
at admission, inside ``step``).  So the least-outstanding and
KV-pressure policies read each replica's key once per tick into a heap
and bump the winner's count per pick, with the same tie-break on
replica id; their ``choose`` is a one-prompt ``assign``.  The base
``assign`` calls ``choose`` per prompt, the first at call time, which
round-robin and the cost/SLO policy keep (its TTFT estimate moves with
every submit).  A tick with no due requests makes no router call, so
``assign`` takes at least one prompt.  The heap lives for one routing
phase only, so router snapshots are unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from heapq import heapify, heapreplace

from .arrivals import _require_finite
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

        ``prompts`` must hold at least one prompt.  The caller must
        submit each request to its yielded replica before asking for
        the next pick.

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


class LeastOutstandingRouter(Router):
    """Fewest queued-or-running requests wins (join-shortest-queue)."""

    name = "least-outstanding"

    def choose(self, prompt_tokens: int, replicas: Sequence[Replica],
               now: float) -> Replica:
        return next(self.assign((prompt_tokens,), replicas, now))

    def assign(self, prompts: Iterable[int], replicas: Sequence[Replica],
               now: float) -> Iterator[Replica]:
        return _least_first([(0, r.outstanding, r.replica_id, r)
                             for r in replicas if r.routable], prompts)


class KvPressureRouter(Router):
    """Most free KV blocks wins; breaks ties on queue depth then id.

    Outstanding-request counts miss that a few long-context sequences
    can exhaust the paged-KV pool; routing on block pressure sends
    work where memory headroom is, reducing preemption storms.
    """

    name = "kv-pressure"

    def choose(self, prompt_tokens: int, replicas: Sequence[Replica],
               now: float) -> Replica:
        return next(self.assign((prompt_tokens,), replicas, now))

    def assign(self, prompts: Iterable[int], replicas: Sequence[Replica],
               now: float) -> Iterator[Replica]:
        return _least_first([(-r.kv_free_fraction, r.outstanding,
                              r.replica_id, r)
                             for r in replicas if r.routable], prompts)


class CostSloRouter(Router):
    """Prefer cheap replicas until TTFT SLO risk forces a spill.

    Args:
        slo_ttft_s: The TTFT service-level objective.
        risk_factor: Fraction of the SLO budget a candidate's estimated
            TTFT may consume before it is considered at risk (0.8 means
            spill once the estimate exceeds 80% of the SLO).
    """

    name = "cost-slo"

    def __init__(self, slo_ttft_s: float, risk_factor: float = 0.8) -> None:
        _require_finite(slo_ttft_s=slo_ttft_s)
        if slo_ttft_s <= 0:
            raise ValueError("slo_ttft_s must be positive")
        if not 0.0 < risk_factor <= 1.0:
            raise ValueError("risk_factor must be in (0, 1]")
        self.slo_ttft_s = slo_ttft_s
        self.risk_factor = risk_factor

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

    def choose(self, prompt_tokens: int, replicas: Sequence[Replica],
               now: float) -> Replica:
        candidates = self._routable(replicas)
        budget = self.slo_ttft_s * self.risk_factor
        safe = [r for r in candidates
                if r.estimated_ttft_s(prompt_tokens, now) <= budget]
        if safe:
            # Cheapest safe replica; ties to the least loaded, then id.
            return min(safe, key=lambda r: (r.spec.price_hr, r.outstanding,
                                            r.replica_id))
        # Every replica is at risk: damage control, minimize the miss.
        return min(candidates,
                   key=lambda r: (r.estimated_ttft_s(prompt_tokens, now),
                                  r.replica_id))


def _least_first(heap: list[tuple], prompts: Iterable[int],
                 ) -> Iterator[Replica]:
    """Heapify one entry per routable replica and pick from it lazily.

    Entries are ``(pressure, outstanding, replica_id, replica)``.

    Raises:
        ValueError: If no replica is routable (``heap`` is empty).
    """
    if not heap:
        raise ValueError("no routable replica")
    heapify(heap)
    return _pop_least(heap, prompts)


def _pop_least(heap: list[tuple], prompts: Iterable[int],
               ) -> Iterator[Replica]:
    """Yield the heap's least replica per prompt, counting each pick: a
    submit changes only ``outstanding``, so the winner goes back with
    one more."""
    for _ in prompts:
        pressure, outstanding, replica_id, replica = heap[0]
        heapreplace(heap, (pressure, outstanding + 1, replica_id, replica))
        yield replica


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
