"""Step traces and the per-block layer breakdown (Fig. 7).

The paper instruments TDX inference with per-layer traces, parses them,
and reports the duration and overhead of each decoder-block layer.  We
reproduce the pipeline: the simulator emits :class:`TraceEvent` records,
and the aggregation here computes per-layer means, shares of block time,
and TDX-over-baseline overheads per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..llm.graph import BLOCK_OP_NAMES, graph_order
from ..llm.ops import Phase
from .roofline import StepCost


@dataclass(frozen=True)
class TraceEvent:
    """One timed operator instance."""

    name: str
    layer: int | None
    phase: Phase
    duration_s: float


def events_from_step(step: StepCost, phase: Phase) -> list[TraceEvent]:
    """Flatten a costed step into trace events, one per full-graph op.

    A block operator at repeat ``r`` of the step's block is layer
    ``op.layer + r``; embed and head operators keep ``None``.  Durations
    include the step's tax multiplier, as a wall-clock trace would
    observe it.
    """
    return [TraceEvent(name=cost.op.name,
                       layer=cost.op.layer + repeat if repeat
                       else cost.op.layer,
                       phase=phase,
                       duration_s=cost.total_s * step.tax_multiplier)
            for cost, repeat in graph_order(step.op_costs, step.num_layers)]


@dataclass(frozen=True)
class LayerStat:
    """Aggregated timing of one decoder-block layer kind."""

    name: str
    mean_duration_s: float
    total_duration_s: float
    share_of_block: float


def block_layer_summary(events: list[TraceEvent]) -> dict[str, LayerStat]:
    """Per-layer-kind stats over the decoder blocks of a trace.

    Embedding/head ops (``layer is None``) are excluded — the paper
    observes decoder blocks take 99.9% of the time.
    """
    durations: dict[str, list[float]] = {}
    for event in events:
        if event.layer is None:
            continue
        durations.setdefault(event.name, []).append(event.duration_s)
    block_total = sum(sum(values) for values in durations.values())
    if block_total == 0.0:
        raise ValueError("trace contains no decoder-block events")
    summary = {}
    for name, values in durations.items():
        total = sum(values)
        summary[name] = LayerStat(
            name=name,
            mean_duration_s=total / len(values),
            total_duration_s=total,
            share_of_block=total / block_total,
        )
    return summary


def decoder_block_share(events: list[TraceEvent]) -> float:
    """Fraction of step time spent inside decoder blocks.

    The paper reports 99.9%, the remainder being embedding and the final
    normalization (the LM head is part of generation bookkeeping there;
    we count it as outside the blocks too).
    """
    block = sum(e.duration_s for e in events if e.layer is not None)
    total = sum(e.duration_s for e in events)
    if total == 0.0:
        raise ValueError("empty trace")
    return block / total


def layer_overheads(tee_events: list[TraceEvent],
                    baseline_events: list[TraceEvent]) -> dict[str, float]:
    """Per-layer-kind overhead of a TEE trace over a baseline trace.

    Returns:
        Mapping from layer name to fractional overhead
        (``tee/baseline - 1``), ordered like :data:`BLOCK_OP_NAMES`.
    """
    tee = block_layer_summary(tee_events)
    base = block_layer_summary(baseline_events)
    overheads = {}
    for name in BLOCK_OP_NAMES:
        if name in tee and name in base and base[name].total_duration_s > 0:
            overheads[name] = (tee[name].total_duration_s
                               / base[name].total_duration_s - 1.0)
    return overheads
