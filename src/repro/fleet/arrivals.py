"""Arrival-process generators for fleet-scale serving studies.

The paper's serving question — what does confidential inference cost
under load — depends on *how* load arrives.  A single Poisson rate
answers the steady-state question; production traffic is bursty (flash
crowds, retry storms) and diurnal (timezone peaks).  This module is the
one home of request-stream generation for all of those regimes, plus
exact trace replay.  Every generator returns a columnar
:class:`~repro.fleet.table.RequestTable`; ``list(table)`` materializes
:class:`~repro.serving.scheduler.ServeRequest` objects for callers that
want them.

Every seeded generator draws in one order: all arrival instants first
(``_*_times``), then two lognormal sizes per request in id order
(:func:`_fill_sizes`).  Same arguments -> identical stream, which is
what makes fleet reports reproducible and golden-snapshotable.
"""

from __future__ import annotations

import math
import random
from array import array
from collections.abc import Sequence

import numpy as np

from .. import guards
from .table import RequestTable


def _seeded(count: int, mean_prompt: int, mean_output: int,
            seed: int) -> random.Random:
    """The stream's RNG, once the sizes every generator takes are valid."""
    guards.count("count", count, ge=1)
    guards.count("mean_prompt", mean_prompt, ge=1)
    guards.count("mean_output", mean_output, ge=1)
    return random.Random(seed)


def _poisson_times(count: int, rate_per_s: float,
                   rng: random.Random) -> list[float]:
    """Arrival instants of a homogeneous Poisson process."""
    guards.finite("rate_per_s", rate_per_s, gt=0)
    arrivals, clock = [], 0.0
    for _ in range(count):
        clock += rng.expovariate(rate_per_s)
        arrivals.append(clock)
    return arrivals


def _mmpp_times(count: int, calm_rate_per_s: float, burst_rate_per_s: float,
                mean_calm_s: float, mean_burst_s: float,
                rng: random.Random) -> list[float]:
    """Arrival instants of the two-state MMPP (see :func:`mmpp_table`)."""
    guards.finite("calm_rate_per_s", calm_rate_per_s, gt=0)
    guards.finite("burst_rate_per_s", burst_rate_per_s, ge=calm_rate_per_s)
    guards.finite("mean_calm_s", mean_calm_s, gt=0)
    guards.finite("mean_burst_s", mean_burst_s, gt=0)
    arrivals: list[float] = []
    clock = 0.0
    bursting = False
    state_end = rng.expovariate(1.0 / mean_calm_s)
    while len(arrivals) < count:
        rate = burst_rate_per_s if bursting else calm_rate_per_s
        gap = rng.expovariate(rate)
        if clock + gap >= state_end:
            # State flips before the next arrival; restart the draw
            # from the flip instant (memorylessness makes this exact).
            clock = state_end
            bursting = not bursting
            dwell = mean_burst_s if bursting else mean_calm_s
            state_end = clock + rng.expovariate(1.0 / dwell)
            continue
        clock += gap
        arrivals.append(clock)
    return arrivals


def _diurnal_times(count: int, mean_rate_per_s: float, period_s: float,
                   peak_to_trough: float, rng: random.Random) -> list[float]:
    """Arrival instants of the thinned diurnal process."""
    guards.finite("mean_rate_per_s", mean_rate_per_s, gt=0)
    guards.finite("period_s", period_s, gt=0)
    guards.finite("peak_to_trough", peak_to_trough, ge=1)
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    peak_rate = mean_rate_per_s * (1.0 + amplitude)
    arrivals: list[float] = []
    clock = 0.0
    while len(arrivals) < count:
        clock += rng.expovariate(peak_rate)
        rate = mean_rate_per_s * (
            1.0 + amplitude * math.sin(2.0 * math.pi * clock / period_s))
        if rng.random() <= rate / peak_rate:
            arrivals.append(clock)
    return arrivals


def _fill_sizes(rng: random.Random, count: int, mean_prompt: int,
                mean_output: int) -> tuple[array, array]:
    """Per-request lognormal sizes, drawn in id order.

    Two lognormal variates per request (prompt, then output), after
    every arrival draw, filled straight into flat arrays.
    """
    prompts = array("q", bytes(8 * count))
    outputs = array("q", bytes(8 * count))
    for index in range(count):
        prompts[index] = max(16, int(rng.lognormvariate(0.0, 0.5)
                                     * mean_prompt))
        outputs[index] = max(8, int(rng.lognormvariate(0.0, 0.4)
                                    * mean_output))
    return prompts, outputs


def _table_from_times(arrivals: list[float], rng: random.Random,
                      mean_prompt: int, mean_output: int) -> RequestTable:
    prompts, outputs = _fill_sizes(rng, len(arrivals), mean_prompt,
                                   mean_output)
    return RequestTable(
        request_id=np.arange(len(arrivals), dtype=np.int64),
        arrival_s=arrivals, prompt_tokens=prompts, output_tokens=outputs)


def poisson_table(count: int, rate_per_s: float, mean_prompt: int = 256,
                  mean_output: int = 96, seed: int = 0) -> RequestTable:
    """Homogeneous Poisson arrivals (exponential inter-arrival gaps)."""
    rng = _seeded(count, mean_prompt, mean_output, seed)
    return _table_from_times(_poisson_times(count, rate_per_s, rng), rng,
                             mean_prompt, mean_output)


def mmpp_table(count: int, calm_rate_per_s: float, burst_rate_per_s: float,
               mean_calm_s: float = 20.0, mean_burst_s: float = 5.0,
               mean_prompt: int = 256, mean_output: int = 96,
               seed: int = 0) -> RequestTable:
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The process alternates between a *calm* and a *burst* state with
    exponentially distributed dwell times; within each state arrivals
    are Poisson at that state's rate.  This is the standard minimal
    model for flash-crowd traffic — the regime where TEE overheads
    compound with queueing delay.
    """
    rng = _seeded(count, mean_prompt, mean_output, seed)
    return _table_from_times(
        _mmpp_times(count, calm_rate_per_s, burst_rate_per_s, mean_calm_s,
                    mean_burst_s, rng),
        rng, mean_prompt, mean_output)


def diurnal_table(count: int, mean_rate_per_s: float, period_s: float = 240.0,
                  peak_to_trough: float = 4.0, mean_prompt: int = 256,
                  mean_output: int = 96, seed: int = 0) -> RequestTable:
    """Sinusoidally modulated Poisson arrivals (diurnal load curve).

    Thinning (Lewis-Shedler): candidates are drawn at the peak rate and
    accepted with probability ``rate(t) / peak_rate``, yielding an
    exact non-homogeneous Poisson process with

    ``rate(t) = mean * (1 + a * sin(2 pi t / period))``,

    where ``a`` is derived from ``peak_to_trough`` (peak/trough rate
    ratio).  ``period_s`` defaults to a compressed "day" so simulations
    stay short.
    """
    rng = _seeded(count, mean_prompt, mean_output, seed)
    return _table_from_times(
        _diurnal_times(count, mean_rate_per_s, period_s, peak_to_trough,
                       rng),
        rng, mean_prompt, mean_output)


def trace_replay(trace: Sequence[tuple[float, int, int]]) -> RequestTable:
    """Deterministic replay of an explicit (arrival_s, prompt, output) trace.

    Request ids follow trace order; arrivals need not be sorted (the
    scheduler orders by arrival time).  This is the generator capacity
    planning uses: a committed trace makes the sweep bit-reproducible.
    """
    if not trace:
        raise ValueError("empty trace")
    return RequestTable(
        request_id=np.arange(len(trace), dtype=np.int64),
        arrival_s=[float(arrival) for arrival, _, _ in trace],
        prompt_tokens=[int(prompt) for _, prompt, _ in trace],
        output_tokens=[int(output) for _, _, output in trace])


#: Named generators the CLI and sweep helpers expose.
ARRIVAL_KINDS = ("poisson", "mmpp", "diurnal")


def make_arrival_table(kind: str, count: int, rate_per_s: float,
                       mean_prompt: int = 256, mean_output: int = 96,
                       seed: int = 0) -> RequestTable:
    """Build a stream by generator name (CLI convenience).

    ``mmpp`` treats ``rate_per_s`` as the calm rate with a 3x burst;
    ``diurnal`` as the mean rate.
    """
    if kind == "poisson":
        return poisson_table(count, rate_per_s, mean_prompt, mean_output,
                             seed)
    if kind == "mmpp":
        return mmpp_table(count, rate_per_s, 3.0 * rate_per_s,
                          mean_prompt=mean_prompt, mean_output=mean_output,
                          seed=seed)
    if kind == "diurnal":
        return diurnal_table(count, rate_per_s, mean_prompt=mean_prompt,
                             mean_output=mean_output, seed=seed)
    raise ValueError(f"unknown arrival kind {kind!r}; "
                     f"expected one of {ARRIVAL_KINDS}")
