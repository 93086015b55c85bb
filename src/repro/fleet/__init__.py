"""Fleet-scale serving simulation: replicas, routing, autoscaling, cost.

Composes the steppable continuous-batching scheduler
(:mod:`repro.serving.scheduler`), the TEE-aware cost model and the
price catalog (:mod:`repro.cost.pricing`) into a multi-replica cluster
under a shared discrete-event clock — the layer that turns the paper's
per-instance overhead and cost numbers into serving economics under
load: SLO-attainment curves, tail latencies, $/Mtok, and
capacity-planning sweeps across {CPU-TEE, cGPU} fleets.
"""

from .arrivals import (
    ARRIVAL_KINDS,
    diurnal_table,
    make_arrival_table,
    mmpp_table,
    poisson_table,
    trace_replay,
)
from .retryq import RetryQueue
from .table import ColumnarOutcomes, OutcomeLog, RequestTable, ShedLog
from .autoscaler import AutoscalerConfig, ReactiveAutoscaler, ScaleEvent
from .cluster import DEFAULT_TICK_S, FleetSimulator, fixed_fleet
from .planner import CapacityPlan, CapacityPoint, capacity_sweep
from .replica import REPLICA_KINDS, Replica, ReplicaSpec, replica_spec
from .report import FleetReport, ReplicaUsage
from .router import (
    ROUTER_KINDS,
    CostSloRouter,
    KvPressureRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    Router,
    make_router,
)

__all__ = [
    "ARRIVAL_KINDS",
    "AutoscalerConfig",
    "CapacityPlan",
    "CapacityPoint",
    "ColumnarOutcomes",
    "CostSloRouter",
    "DEFAULT_TICK_S",
    "FleetReport",
    "FleetSimulator",
    "KvPressureRouter",
    "LeastOutstandingRouter",
    "OutcomeLog",
    "REPLICA_KINDS",
    "ROUTER_KINDS",
    "ReactiveAutoscaler",
    "Replica",
    "ReplicaSpec",
    "ReplicaUsage",
    "RequestTable",
    "RetryQueue",
    "RoundRobinRouter",
    "Router",
    "ScaleEvent",
    "ShedLog",
    "capacity_sweep",
    "diurnal_table",
    "fixed_fleet",
    "make_arrival_table",
    "make_router",
    "mmpp_table",
    "poisson_table",
    "replica_spec",
    "trace_replay",
]
