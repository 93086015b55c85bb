"""The fleet's per-event indexes are derived state.

The busy set, wake heap, draining set, active count, flight heap and
the routers' load heap are never snapshotted: ``begin_run`` and
``from_state`` rebuild them from replica and run state.  These tests
snapshot a faulted 64-replica run and a WFQ / shared-prefix / phased
boot / MTBF regime at several ticks, restore each snapshot into a fresh
simulator and require the finished report to equal the uninterrupted
run.  The snapshots themselves are pinned by digest, recorded before
the indexes existed, so no index leaks into the wire format.
"""

import hashlib
import json

import pytest

from repro.faults import RetryPolicy, mtbf_schedule
from repro.fleet import fixed_fleet, poisson_table, replica_spec
from repro.fleet.replica import DRAINING
from repro.tee.boot import boot_profile
from repro.tenancy import whale_mix


def _wide_faulted():
    """64 TDX replicas at 1/16 req/s each, under MTBF faults of every
    kind and retry timeouts that fire inside quiet stretches."""
    spec = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)
    faults = mtbf_schedule(list(range(64)), mtbf_s=200.0, horizon_s=75.0,
                           seed=9)
    retry = RetryPolicy(timeout_s=4.0, max_attempts=4, seed=9)
    stream = poisson_table(300, rate_per_s=4.0, mean_prompt=128,
                           mean_output=32, seed=9)
    return (lambda: fixed_fleet(spec, 64, faults=faults,
                                retry_policy=retry)), stream


def _chaos_tenants():
    """The ``fleet_chaos_tenants`` shape, scaled down: WFQ tenants on
    shared prefixes, phased boots and MTBF faults on 4 replicas."""
    population = whale_mix(120, 1.5, seed=3, prefix_tokens=64)
    tenancy = population.tenancy_config(admission="wfq",
                                        kv_isolation="shared-prefix")
    spec = replica_spec("tdx", tenancy=tenancy, boot=boot_profile("tdx"))
    faults = mtbf_schedule(list(range(4)), 40.0, 80.0, seed=3)
    retry = RetryPolicy(30.0, 4, seed=3)
    return (lambda: fixed_fleet(spec, 4, faults=faults,
                                retry_policy=retry)), population.table()


REGIMES = {"64x faulted": _wide_faulted, "chaos tenants": _chaos_tenants}

#: sha256 of each regime's snapshot sequence (JSON, key order kept).
RECORDED = {
    "64x faulted": ("099cd5a9f55a7bc08184c18010626c26"
                    "93860da06601d31533e1658bd39654d1"),
    "chaos tenants": ("a6f7cec209d17d8d9206c0b672dca2ce"
                      "ca842420eea917e4cdc0ab77dd736bc6"),
}

#: Ticks between snapshots, per regime.
EVERY = {"64x faulted": 45, "chaos tenants": 30}


def event(fleet):
    """Finish an armed run the way ``run()`` does, jumping quiet ticks."""
    while fleet.run_active:
        fleet._skip_quiet_ticks()
        fleet.run_tick()
    return fleet.finish_run()


def stepped(fleet):
    """Finish an armed run with a plain loop that executes every tick."""
    while fleet.run_active:
        fleet.run_tick()
    return fleet.finish_run()


def _snapshots(name):
    """The regime's report and its mid-run snapshots (JSON round-trip),
    taken every :data:`EVERY` executed ticks of a jumping loop."""
    factory, stream = REGIMES[name]()
    running = factory()
    running.begin_run(stream)
    snapshots = []
    ticks = 0
    while running.run_active:
        running._skip_quiet_ticks()
        running.run_tick()
        ticks += 1
        if ticks % EVERY[name] == 0:
            snapshots.append(json.loads(json.dumps(running.to_state())))
    return running.finish_run().to_dict(), snapshots


def _digest(snapshots) -> str:
    return hashlib.sha256(json.dumps(snapshots).encode()).hexdigest()


def _assert_indexes_rebuilt(fleet):
    """Every derived index equals one rebuilt from replica state."""
    replicas = fleet.replicas
    assert fleet._busy == {r.replica_id for r in replicas
                           if r.active and r.needs_step}
    assert fleet._active_count == len(fleet.active)
    assert fleet._draining == {r.replica_id for r in replicas
                               if r.state == DRAINING}
    entries = set(fleet._wake)
    for replica in replicas:
        for edge in replica._wake_edges():
            assert (edge, replica.replica_id) in entries
    state = fleet._run.chaos
    if state is not None and state.retry is not None:
        entries = set(state.flight_heap)
        for row, (_, routed_s) in state.flights.items():
            assert (routed_s, row) in entries


@pytest.mark.parametrize("name", sorted(REGIMES))
def test_restored_indexes_finish_bit_identical(name):
    factory, stream = REGIMES[name]()
    baseline = factory().run(stream).to_dict()
    report, snapshots = _snapshots(name)
    assert report == baseline
    assert len(snapshots) >= 4
    # The wire format is unchanged: no index leaks into a snapshot.
    assert _digest(snapshots) == RECORDED[name]
    for index, payload in enumerate(snapshots):
        assert set(payload) == {"tick_s", "chaos_armed", "initial_replicas",
                                "replicas", "router", "autoscaler",
                                "attestation", "run"}
        assert payload["router"] == {"name": "least-outstanding"}
        fresh = factory()
        fresh.from_state(payload)
        _assert_indexes_rebuilt(fresh)
        drive = stepped if index % 2 else event
        assert drive(fresh).to_dict() == baseline, index


@pytest.mark.parametrize("name", sorted(REGIMES))
def test_indexes_match_a_rebuild_after_every_tick(name):
    factory, stream = REGIMES[name]()
    fleet = factory()
    fleet.begin_run(stream)
    while fleet.run_active:
        fleet._skip_quiet_ticks()
        _assert_indexes_rebuilt(fleet)
        fleet.run_tick()
        _assert_indexes_rebuilt(fleet)
    report = fleet.finish_run()
    faults = {fault.event.kind for fault in report.fault_events
              if not fault.effect.startswith("no-op")}
    assert {"crash", "hang", "slowdown"} <= faults
