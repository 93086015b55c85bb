"""The fleet loop pays per event, not per replica per tick.

At a fixed load per replica, the work a run does in events (executed
ticks, replica steps and routed rows) grows with the stream, not with
the fleet.  So must the loop's reads of per-replica lifecycle state.
This test counts reads of ``Replica.needs_step``, ``Replica.active``
and ``Replica.routable`` per unit of event work at 8 and 256 replicas
under the same per-replica load, with no wall clock involved.
"""

import pytest

from repro.fleet import Replica, fixed_fleet, poisson_table, replica_spec

SPEC = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)

#: Per-replica offered load (req/s) and stream length.
RATE_PER_REPLICA = 0.0625
REQUESTS = 4000


def _reads_per_unit(replicas: int) -> float:
    """Lifecycle-property reads per executed tick, step or routed row."""
    reads = steps = ticks = 0

    def counting(prop: property) -> property:
        def read(self):
            nonlocal reads
            reads += 1
            return prop.fget(self)
        return property(read)

    step = Replica.step

    def counted_step(self, until_s):
        nonlocal steps
        steps += 1
        return step(self, until_s)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("needs_step", "active", "routable"):
            patch.setattr(Replica, name, counting(getattr(Replica, name)))
        patch.setattr(Replica, "step", counted_step)
        fleet = fixed_fleet(SPEC, replicas)
        tick = fleet.run_tick

        def counted_tick() -> None:
            nonlocal ticks
            ticks += 1
            tick()

        fleet.run_tick = counted_tick
        report = fleet.run(poisson_table(
            REQUESTS, rate_per_s=RATE_PER_REPLICA * replicas,
            mean_prompt=128, mean_output=32, seed=11))
    routed = sum(usage.requests_served for usage in report.replicas)
    assert routed == REQUESTS
    return reads / (ticks + steps + routed)


def test_lifecycle_reads_per_event_do_not_grow_with_the_fleet():
    narrow, wide = _reads_per_unit(8), _reads_per_unit(256)
    assert wide / narrow < 1.5, (narrow, wide)
