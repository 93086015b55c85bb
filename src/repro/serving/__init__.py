"""Serving substrate: continuous batching over a paged KV cache."""

from .admission import (
    ADMISSION_POLICIES,
    KV_ISOLATION_MODES,
    TenancyConfig,
)
from .scheduler import (
    ContinuousBatchingScheduler,
    OutcomeLog,
    RequestOutcome,
    ServeRequest,
    ServingReport,
    poisson_stream,
)
from .stepcost import StepCostTable

__all__ = [
    "ADMISSION_POLICIES", "ContinuousBatchingScheduler",
    "KV_ISOLATION_MODES", "OutcomeLog", "RequestOutcome", "ServeRequest",
    "ServingReport", "StepCostTable", "TenancyConfig", "poisson_stream",
]
