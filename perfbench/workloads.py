"""The four fleet workloads the benchmark times, and their output digests.

Every workload is one offline call on a request stream generated in
advance from ``--seed`` (see :func:`stream_seed`): no live arrival
process runs, so throughput is
reported at the stated input size and lateness is not measured.  The
timed region builds the fleet and makes the public run call, ending with
the report's ``to_dict()`` (what a CLI prints); generating the stream
and the replica specs is set-up.

Calls go only through public ``repro`` names.  ``engine="event"`` is
passed only while the callee's signature still lists ``engine``, so the
benchmark keeps working after the second fleet engine is deleted.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro.faults import RetryPolicy, mtbf_schedule
from repro.fleet import (
    CostSloRouter,
    FleetSimulator,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from repro.tee import boot_profile
from repro.tenancy import report as tenancy_report
from repro.tenancy import whale_mix


def _engine(callee: Callable) -> dict:
    if "engine" in inspect.signature(callee).parameters:
        return {"engine": "event"}
    return {}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        requests: Stream length at ``--scale 1``.
        warm_calls: Warm repeats per worker; more where one warm call
            is short, so its median is not timer noise.
        setup: ``(seed, requests) -> inputs``; untimed except as set-up.
        serve: ``inputs -> report dict``; the timed public call.
    """

    requests: int
    warm_calls: int
    setup: Callable[[int, int], dict]
    serve: Callable[[dict], dict]


# -- fleet_overload / fleet_sparse: 8 TDX replicas, least-outstanding ----------

def _tdx8_setup(rate_per_s: float) -> Callable[[int, int], dict]:
    def setup(seed: int, requests: int) -> dict:
        return {
            "table": poisson_table(requests, rate_per_s, mean_prompt=128,
                                   mean_output=32, seed=seed),
            "spec": replica_spec("tdx", max_batch=16,
                                 kv_capacity_tokens=65536),
        }
    return setup


def _tdx8_serve(inputs: dict) -> dict:
    fleet = fixed_fleet(inputs["spec"], 8, **_engine(fixed_fleet))
    return fleet.run(inputs["table"]).to_dict()


# -- fleet_long_prompt: 3 TDX + 1 cGPU behind the cost/SLO router --------------

def _long_setup(seed: int, requests: int) -> dict:
    return {
        "table": poisson_table(requests, 3.0, mean_prompt=1024,
                               mean_output=8, seed=seed),
        "specs": [replica_spec("tdx")] * 3 + [replica_spec("cgpu")],
    }


def _long_serve(inputs: dict) -> dict:
    fleet = FleetSimulator(inputs["specs"],
                           router=CostSloRouter(slo_ttft_s=10.0),
                           **_engine(FleetSimulator))
    return fleet.run(inputs["table"]).to_dict()


# -- fleet_chaos_tenants: WFQ + shared prefix + phased boot + MTBF faults ------

def _chaos_setup(seed: int, requests: int) -> dict:
    # The body of repro.tenancy.run_tenant_fleet, with the stream built
    # here so that generating it stays out of the timed region.
    population = whale_mix(requests, 1.5, seed=seed, prefix_tokens=64)
    tenancy = population.tenancy_config(admission="wfq",
                                        kv_isolation="shared-prefix")
    return {
        "population": population,
        "table": population.table(),
        "spec": replica_spec("tdx", tenancy=tenancy,
                             boot=boot_profile("tdx")),
        "faults": mtbf_schedule(list(range(4)), 300.0, requests / 1.5,
                                seed=seed),
        "retry": RetryPolicy(120.0, 4, seed=seed),
    }


def _chaos_serve(inputs: dict) -> dict:
    fleet = fixed_fleet(inputs["spec"], 4, faults=inputs["faults"],
                        retry_policy=inputs["retry"],
                        **_engine(fixed_fleet))
    report = fleet.run(inputs["table"])
    return tenancy_report.tenant_breakdown(report,
                                           inputs["population"]).to_dict()


WORKLOADS: dict[str, Workload] = {
    "fleet_overload": Workload(20_000, 2, _tdx8_setup(400.0), _tdx8_serve),
    "fleet_sparse": Workload(4_000, 2, _tdx8_setup(0.5), _tdx8_serve),
    "fleet_long_prompt": Workload(600, 8, _long_setup, _long_serve),
    "fleet_chaos_tenants": Workload(3_000, 3, _chaos_setup, _chaos_serve),
}


def stream_seed(seed: int, stream: int) -> int:
    """Seed of the ``stream``-th input stream of a run; stream 0 is ``seed``.

    Each worker of a run takes the next stream, so a run's medians pool
    several streams rather than hang on the luck of one.
    """
    return seed + 1_000_003 * stream


def scaled_requests(workload: Workload, scale: float) -> int:
    """Stream length at ``scale`` (whale_mix needs at least 20)."""
    return max(40, round(workload.requests * scale))


def fleet_dict(report: dict) -> dict:
    """The fleet-level part of a report dict (tenancy nests it)."""
    return report.get("fleet", report)


#: Report fields a digest pins.  Reading only these lets later changes
#: add report fields without invalidating ``reference.json``.
DIGEST_FIELDS = ("requests", "shed_requests", "retries", "tokens_out",
                 "end_s", "ttft_p50_s", "ttft_p99_s", "e2e_p50_s",
                 "e2e_p99_s", "cost_usd", "total_preemptions")


def _exact(value):
    return repr(value) if isinstance(value, float) else value


def digest(report: dict) -> dict:
    """Exact, JSON-safe summary of one run (floats as their ``repr``)."""
    fleet = fleet_dict(report)
    pinned = {field: _exact(fleet[field]) for field in DIGEST_FIELDS}
    pinned["replicas"] = [[usage["requests_served"], usage["tokens_out"]]
                          for usage in fleet["replicas"]]
    return pinned
