"""Parameter sweeps.

Most figures are sweeps: batch size (Figs. 8-9), input length
(Figs. 10-11, 13), core count (Fig. 12).  A sweep runs an experiment per
parameter value, in the caller's value order, and flattens the results
into rows a harness can print or assert on.
"""

from __future__ import annotations

from typing import Callable

from .. import guards
from ..engine.placement import Deployment, Workload
from ..state.errors import StateValueError
from .experiment import Experiment, ExperimentResult


def _validate_grid(parameter: str, values: list) -> None:
    """Reject malformed sweep grids before any experiment is built.

    Grid values name workload parameters and deployment variants (batch
    sizes, token counts, core counts), so each must be an integer >= 1
    (:func:`repro.guards.count`); catching a bad value here fails the
    whole sweep in microseconds, naming its slot, instead of failing
    one experiment minutes in.  Raises the structured
    :class:`~repro.state.errors.StateValueError` (a ``ValueError``
    subclass, so pre-existing handlers keep working).
    """
    if not values:
        raise StateValueError(f"sweep grid {parameter!r} must be non-empty")
    for slot, value in enumerate(values):
        try:
            guards.count(f"sweep grid {parameter!r}[{slot}]", value, ge=1)
        except ValueError as error:
            raise StateValueError(str(error)) from None


def sweep_workload(name: str, base: Workload,
                   deployments: dict[str, Deployment], parameter: str,
                   values: list[int], baseline_label: str = "baremetal",
                   seed: int = 0) -> dict[int, ExperimentResult]:
    """Run one experiment per value of a workload parameter.

    Args:
        parameter: Workload field to vary (``batch_size``,
            ``input_tokens``, ...).

    Returns:
        Mapping from parameter value to that experiment's result, in the
        order of ``values``.

    Raises:
        repro.state.errors.StateValueError: On an empty grid or a
            value that is not an integer >= 1.
    """
    _validate_grid(parameter, values)
    experiments = [
        Experiment(name=f"{name}[{parameter}={value}]",
                   workload=base.with_(**{parameter: value}),
                   deployments=deployments, baseline_label=baseline_label,
                   seed=seed)
        for value in values
    ]
    return {value: experiment.run()
            for value, experiment in zip(values, experiments)}


def sweep_deployments(name: str, workload: Workload,
                      make_deployments: Callable[[int], dict[str, Deployment]],
                      values: list[int], baseline_label: str = "baremetal",
                      seed: int = 0) -> dict[int, ExperimentResult]:
    """Run one experiment per deployment variant (e.g. core counts).

    Args:
        make_deployments: Builds the labelled deployments for one value.

    Raises:
        repro.state.errors.StateValueError: On an empty grid or a
            value that is not an integer >= 1.
    """
    _validate_grid(name, values)
    experiments = [
        Experiment(name=f"{name}[{value}]", workload=workload,
                   deployments=make_deployments(value),
                   baseline_label=baseline_label, seed=seed)
        for value in values
    ]
    return {value: experiment.run()
            for value, experiment in zip(values, experiments)}


def _series_result(outcomes: dict[int, ExperimentResult], value: int,
                   label: str) -> ExperimentResult:
    outcome = outcomes[value]
    if label not in outcome.results:
        raise KeyError(
            f"label {label!r} not in sweep outcome for value {value}; "
            f"known labels: {sorted(outcome.results)}")
    return outcome


def overhead_series(outcomes: dict[int, ExperimentResult], label: str,
                    metric: str = "throughput") -> dict[int, float]:
    """Extract an overhead-vs-parameter series from sweep outcomes.

    Args:
        metric: ``"throughput"`` or ``"latency"``.

    Raises:
        KeyError: If ``label`` is missing from any outcome (the error
            names the offending value and the known labels).
    """
    if metric not in ("throughput", "latency"):
        raise ValueError("metric must be 'throughput' or 'latency'")
    series = {}
    for value in outcomes:
        outcome = _series_result(outcomes, value, label)
        report = outcome.overhead(label)
        series[value] = (report.throughput_overhead if metric == "throughput"
                         else report.latency_overhead)
    return series


def metric_series(outcomes: dict[int, ExperimentResult], label: str,
                  metric: str = "decode_throughput_tok_s") -> dict[int, float]:
    """Extract a raw-metric series (attribute of GenerationResult).

    Raises:
        KeyError: If ``label`` is missing from any outcome.
    """
    series = {}
    for value in outcomes:
        outcome = _series_result(outcomes, value, label)
        series[value] = getattr(outcome.results[label], metric)
    return series


def is_monotonic(series: dict[int, float], decreasing: bool = True,
                 tolerance: float = 0.0) -> bool:
    """Whether a series moves monotonically with the parameter.

    Keys are sorted before comparison, so insertion order never matters.

    Args:
        tolerance: Allowed counter-movement per step (absolute).
    """
    ordered = [series[key] for key in sorted(series)]
    pairs = zip(ordered, ordered[1:])
    if decreasing:
        return all(later <= earlier + tolerance for earlier, later in pairs)
    return all(later >= earlier - tolerance for earlier, later in pairs)
