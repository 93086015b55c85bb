"""A stream with a request no replica spec can ever admit is refused at
``begin_run``, before any tick runs; one that some spec admits runs."""

import pytest

from repro.faults import DegradationPolicy
from repro.fleet import FleetSimulator, fixed_fleet
from repro.fleet.autoscaler import ReactiveAutoscaler
from repro.fleet.replica import replica_spec
from repro.serving.admission import TenancyConfig
from repro.serving.scheduler import ServeRequest

SMALL = replica_spec("tdx", max_batch=8, kv_capacity_tokens=4096)
LARGE = replica_spec("cgpu", max_batch=8, kv_capacity_tokens=16384)


def request(request_id, prompt, output=32, tenant=0):
    return ServeRequest(request_id=request_id, arrival_s=0.1 * request_id,
                        prompt_tokens=prompt, output_tokens=output,
                        tenant_id=tenant)


def _refused_before_any_tick(sim, stream, match):
    ticks = []
    tick = sim.run_tick
    sim.run_tick = lambda: (ticks.append(1), tick())
    with pytest.raises(ValueError, match=match):
        sim.run(stream)
    assert not ticks and sim._run is None
    assert all(replica.scheduler.idle and replica.scheduler.clock_s == 0.0
               for replica in sim.replicas)


class TestOneSpec:
    def test_row_over_the_pool_is_named(self):
        stream = [request(0, 128), request(1, 128), request(42, 8000),
                  request(43, 9000)]
        _refused_before_any_tick(
            fixed_fleet(SMALL, 2), stream,
            r"^request 42 needs 8032 KV tokens, pool holds 4096; "
            r"no replica spec of this fleet can serve it$")

    def test_row_over_its_partition_is_named(self):
        tenancy = TenancyConfig(kv_isolation="partition",
                                partition_shares=((0, 0.25), (1, 0.75)))
        spec = replica_spec("tdx", max_batch=8, kv_capacity_tokens=4096,
                            tenancy=tenancy)
        stream = [request(0, 128, tenant=1), request(1, 1200, tenant=0)]
        _refused_before_any_tick(fixed_fleet(spec, 2), stream,
                                 "request 1 needs .* tenant 0 partition")

    def test_servable_stream_runs(self):
        report = fixed_fleet(SMALL, 2).run([request(0, 128),
                                            request(1, 3000)])
        assert len(report.outcomes) == 2


class TestMixedSpecs:
    def test_row_only_the_large_spec_admits_runs(self):
        stream = [request(0, 128), request(1, 8000)]
        report = FleetSimulator([SMALL, LARGE]).run(stream)
        assert len(report.outcomes) == 2

    def test_row_no_spec_admits_is_named(self):
        stream = [request(0, 128), request(1, 8000), request(2, 20000)]
        _refused_before_any_tick(
            FleetSimulator([SMALL, LARGE]), stream,
            r"^request 2 needs 20032 KV tokens, pool holds 4096; "
            r"no replica spec of this fleet can serve it$")

    def test_provisionable_specs_count(self):
        """The autoscaler's spec and the spill spec serve rows too."""
        stream = [request(0, 128), request(1, 8000)]
        for sim in (
                FleetSimulator([SMALL], autoscaler=ReactiveAutoscaler(),
                               scale_spec=LARGE),
                FleetSimulator([SMALL], degradation=DegradationPolicy(
                    mode="spill", spill_spec=LARGE))):
            sim.begin_run(stream)
            assert sim._run is not None
        # Without a way to provision it, the large spec does not count.
        _refused_before_any_tick(FleetSimulator([SMALL], scale_spec=LARGE),
                                 stream, "request 1 needs")
