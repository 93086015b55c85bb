"""Core library: experiments, metrics, overheads, insights, pipeline."""

from .advisor import Candidate, Recommendation, Requirements, recommend
from .experiment import (
    Experiment,
    ExperimentResult,
    cpu_deployment,
    gpu_deployment,
)
from .insights import ALL_CHECKS, InsightCheck, verify_all_insights
from .metrics import (
    HUMAN_READING_LATENCY_S,
    LatencyStats,
    geometric_mean,
    latency_stats,
    outlier_fraction,
    throughput_from_latencies,
    zscore_filter,
)
from .overhead import (
    OverheadReport,
    compare,
    latency_overhead,
    throughput_overhead,
)
from .report import (
    experiment_section,
    headline_report,
    insights_section,
    markdown_table,
)
from .protections import (
    PROTECTIONS,
    Family,
    Protection,
    only_practical_family,
    practical_mechanisms,
)
from .pipeline import (
    ConfidentialPipeline,
    PipelineResponse,
    ProvisioningReport,
    stream_cipher,
)
from .profiling import (
    CacheStats,
    cache_report,
    cache_stats,
    reset_caches,
)
from .summary import (
    ALL_SUMMARIES,
    CGPU_SUMMARY,
    SGX_SUMMARY,
    TDX_SUMMARY,
    SystemSummary,
    Trend,
    render_summary_table,
)
from .sweep import (
    is_monotonic,
    metric_series,
    overhead_series,
    sweep_deployments,
    sweep_workload,
)

__all__ = [
    "Candidate", "Recommendation", "Requirements", "recommend",
    "experiment_section", "headline_report", "insights_section",
    "markdown_table",
    "Experiment", "ExperimentResult", "cpu_deployment", "gpu_deployment",
    "ALL_CHECKS", "InsightCheck", "verify_all_insights",
    "HUMAN_READING_LATENCY_S", "LatencyStats", "geometric_mean",
    "latency_stats", "outlier_fraction", "throughput_from_latencies",
    "zscore_filter",
    "OverheadReport", "compare", "latency_overhead", "throughput_overhead",
    "PROTECTIONS", "Family", "Protection", "only_practical_family",
    "practical_mechanisms",
    "ConfidentialPipeline", "PipelineResponse", "ProvisioningReport",
    "stream_cipher",
    "CacheStats", "cache_report", "cache_stats", "reset_caches",
    "ALL_SUMMARIES", "CGPU_SUMMARY", "SGX_SUMMARY", "TDX_SUMMARY",
    "SystemSummary", "Trend", "render_summary_table",
    "is_monotonic", "metric_series", "overhead_series",
    "sweep_deployments", "sweep_workload",
]
