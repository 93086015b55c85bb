"""Roofline cost model with TEE mechanism derates.

Per operator the model computes a compute time (engine issue rate x MFU x
Amdahl-scaled cores), a memory time (DRAM-visible traffic over the
effective bandwidth after NUMA mixing, link crypto, and memory-encryption
derates), and two non-overlapped adders: page-walk time (TLB misses x
walk cost, nested-walk multiplier under virtualization) and EPC paging
(SGX).  Step-level costs add enclave exits, fixed launch/CC taxes, and
the virtualization tax.

This is where every mechanism from :mod:`repro.memsim` and
:mod:`repro.tee` meets the operator stream from :mod:`repro.llm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from ..hardware.engines import (
    AVX512_RATES,
    Engine,
    best_cpu_engine,
    is_fallback_path,
)
from ..llm.datatypes import DType
from ..llm.graph import BLOCK_OP_NAMES, graph_order
from ..llm.ops import OpColumns, Operator, OpCategory, Phase
from ..memsim.cache import CacheModel
from ..memsim.epc import EPC_FAULT_S, paging_fraction_vec, paging_overhead_s
from ..memsim.numa import (
    NumaPolicy,
    effective_bandwidth,
    remote_fraction,
    sub_numa_misplacement,
)
from ..memsim.pages import PAGE_4K, HugepagePolicy
from ..memsim.tlb import (
    WalkModel,
    streaming_miss_rate,
    streaming_miss_rate_vec,
    translation_time,
)
from . import calibration as cal
from .placement import CpuPlacement, Deployment, GpuPlacement, Workload

#: Fraction of THP-managed memory actually backed by 2 MB pages; the
#: rest fragments to 4 KB (why reserved 1 GB pages still win, Fig. 6).
THP_COVERAGE = 0.75

#: Fraction of page-walk latency that cannot be hidden by the hardware
#: walkers overlapping with data streaming.
WALK_SERIAL_FRACTION = 0.03

#: Bandwidth bonus SNC gives a NUMA-aware (non-TEE) workload.
SNC_BANDWIDTH_BONUS = 1.05

#: Operator categories that run on the matrix engine (AMX when usable).
_MATRIX_CATEGORIES = (OpCategory.GEMM, OpCategory.ATTENTION)

#: Scheduling tax when hyperthreads are exposed to the guest (PyTorch
#: pins to first logical threads; siblings only add interference).
HYPERTHREAD_TAX = 0.03


@dataclass(frozen=True)
class WorkingSets:
    """Per-stream working sets of one forward step (bytes).

    In a column pass (``step_cost_columns``) a field may instead be an
    array with one entry per shape.
    """

    weights: float
    kv: float
    activations: float


def gpu_io_bytes(workload: Workload, phase: Phase) -> float:
    """Host-device bytes staged through the (bounce) buffer per step."""
    if phase is Phase.PREFILL:
        return workload.sequences * workload.input_tokens * 4.0 + 4096.0
    return workload.sequences * 8.0 + 1024.0


@dataclass(frozen=True)
class OpCost:
    """Cost breakdown of one operator."""

    op: Operator
    compute_s: float
    memory_s: float
    translation_s: float
    paging_s: float

    @property
    def total_s(self) -> float:
        """Compute/memory overlap; translation and paging do not overlap."""
        return max(self.compute_s, self.memory_s) + self.translation_s + self.paging_s


def _per_set(scalar, vec, working_set, *args):
    """``scalar(working_set, *args)`` on a float, ``vec`` on an array.

    Both give the same values (the ``*_vec`` twins use the scalar
    ``<=`` thresholds); the scalar form skips numpy's per-call overhead
    on the working sets that do not vary across a column.
    """
    if isinstance(working_set, np.ndarray):
        return vec(working_set, *args)
    return scalar(working_set, *args)


def _add_in_order(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, one IEEE add each."""
    total = 0.0
    for value in values:
        total += value
    return total


def step_total_s(op_totals: Iterable[float], exits_s: float,
                 fixed_s: float, tax_multiplier: float) -> float:
    """Seconds of one forward step from its per-operator totals.

    The single home of the step formula.  ``op_totals`` is added left to
    right from 0.0, one IEEE add per operator, not with ``sum()``: on
    Python >= 3.12 ``sum()`` of floats is compensated and would round
    differently from :func:`one_block_step_s`'s row-by-row numpy adds.
    """
    return (_add_in_order(op_totals) + exits_s) * tax_multiplier + fixed_s


@dataclass(frozen=True)
class StepCostColumns:
    """:class:`StepCost` of one graph at many step shapes, unsummed.

    ``op_totals[k, j]`` is bitwise the :attr:`OpCost.total_s` of
    operator ``k`` at shape ``j``; :func:`one_block_step_s` finishes
    every shape at once.
    """

    op_totals: np.ndarray
    exits_s: float
    fixed_s: float
    tax_multiplier: float


def _check_one_block(names: tuple[str, ...],
                     layers: tuple[int | None, ...]) -> None:
    """Raise ``RuntimeError`` unless the graph is embed + block + head."""
    width = len(BLOCK_OP_NAMES)
    outside = layers[:1] + layers[1 + width:]
    if (names[1:1 + width] != BLOCK_OP_NAMES
            or outside.count(None) != len(outside)):
        raise RuntimeError(
            f"one-block graph is not embed + {width} block ops + head "
            f"(got {list(names)}); the full step cannot be rebuilt from it")


def one_block_sums(columns: OpColumns, values: np.ndarray,
                   num_layers: int) -> np.ndarray:
    """Per-shape left-to-right sums of the full model's operator values.

    ``columns`` is a step graph of the model's ``num_layers=1`` twin,
    and ``values`` has one row per operator of it and one column per
    shape (its ``op_totals``, or one of its field planes).  The rows
    are taken in full-graph order (:func:`~repro.llm.graph.graph_order`)
    and added one row at a time from 0.0, in place over every shape:
    each entry takes the same IEEE adds in the same order as a
    left-to-right loop over that shape's full graph, so it rounds
    exactly as :func:`step_total_s` does.  Never ``np.sum`` or
    ``np.add.reduce`` (they may sum pairwise) and never
    ``num_layers * block_sum``.

    Raises:
        RuntimeError: If ``columns`` is not embed + one block + head.
    """
    _check_one_block(columns.names, columns.layers)
    add = np.add
    rows = graph_order(values, num_layers)
    total = next(rows)[0] + 0.0
    for row, _ in rows:
        add(total, row, total)
    return total


def one_block_step_s(columns: OpColumns, step: StepCostColumns,
                     num_layers: int) -> list[float]:
    """Full-model step seconds at every shape of a costed one-block twin.

    ``step`` is ``step_cost_columns`` over ``columns``.  The operator
    totals are summed by :func:`one_block_sums` and the step formula of
    :func:`step_total_s` is applied elementwise, so each value equals
    :attr:`StepCost.total_s` of the full graph at that shape bit for
    bit.
    """
    total = one_block_sums(columns, step.op_totals, num_layers)
    return ((total + step.exits_s) * step.tax_multiplier
            + step.fixed_s).tolist()


@dataclass(frozen=True)
class StepCost:
    """Cost of one full forward step: one block and a repeat count.

    ``op_costs`` is the step's one-block twin (embed, one decoder block,
    the head) and ``num_layers`` the block's repeat count; sums add in
    full-graph order (:func:`~repro.llm.graph.graph_order`), bitwise the
    flat graph's.  A flat operator list is ``num_layers=1``.
    """

    op_costs: tuple[OpCost, ...]
    exits_s: float
    fixed_s: float
    tax_multiplier: float
    num_layers: int = 1

    def __post_init__(self) -> None:
        if self.num_layers != 1:
            _check_one_block(tuple(cost.op.name for cost in self.op_costs),
                             tuple(cost.op.layer for cost in self.op_costs))

    def _in_graph_order(self, values: list[float]) -> Iterable[float]:
        """Per-operator ``values`` repeated out to the full graph."""
        return (value for value, _ in graph_order(values, self.num_layers))

    @cached_property
    def total_s(self) -> float:
        """Step seconds, summed once per step and then kept."""
        return step_total_s(
            self._in_graph_order([cost.total_s for cost in self.op_costs]),
            self.exits_s, self.fixed_s, self.tax_multiplier)

    @property
    def compute_s(self) -> float:
        return _add_in_order(self._in_graph_order(
            [cost.compute_s for cost in self.op_costs]))

    @property
    def memory_s(self) -> float:
        return _add_in_order(self._in_graph_order(
            [cost.memory_s for cost in self.op_costs]))

    def is_compute_bound(self) -> bool:
        """Whether aggregate compute time exceeds aggregate memory time."""
        return self.compute_s > self.memory_s


class _CostModel:
    """The step-cost loop and signature both cost models share.

    A model supplies ``_step_terms`` (a step's operator-independent
    inputs), ``_op_cost`` (one operator), ``_column_totals`` (every
    operator of a column pass) and ``_step_scalars(io_bytes)`` (a
    step's exit seconds, fixed seconds and tax multiplier).
    """

    _placement_type: type

    def __init__(self, deployment: Deployment) -> None:
        if not isinstance(deployment.placement, self._placement_type):
            raise TypeError(f"{type(self).__name__} needs a "
                            f"{self._placement_type.__name__}")
        self.deployment = deployment
        self.backend = deployment.backend
        self.framework = deployment.framework
        self.profile = deployment.toggles.apply(self.backend.cost_profile())

    def step_cost(self, ops: list[Operator], sets: WorkingSets, dtype: DType,
                  io_bytes: float = 0.0) -> StepCost:
        """Cost a forward step (all operators + step-level terms).

        The step has ``num_layers=1``; a caller repeats a one-block
        twin with ``dataclasses.replace(step, num_layers=...)``.  Each
        distinct (category, flops, bytes) operator is costed once (a
        flat graph's blocks differ only in ``name``/``layer``, which
        neither model reads), each use wrapped in its own
        :class:`OpCost`.  The
        operator-independent terms are computed once per step.
        ``io_bytes`` is the step's host-device staging
        (:func:`gpu_io_bytes`); only a bounce-buffered GPU pays for it.
        """
        terms = self._step_terms(sets, dtype)
        memo: dict[tuple, OpCost] = {}
        op_costs = []
        for op in ops:
            key = (op.category, op.flops, op.weight_bytes,
                   op.activation_bytes, op.kv_read_bytes, op.kv_write_bytes)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = self._op_cost(op, sets, dtype, terms)
            elif hit.op is not op:
                hit = OpCost(op=op, compute_s=hit.compute_s,
                             memory_s=hit.memory_s,
                             translation_s=hit.translation_s,
                             paging_s=hit.paging_s)
            op_costs.append(hit)
        exits_s, fixed_s, tax = self._step_scalars(io_bytes)
        return StepCost(op_costs=tuple(op_costs), exits_s=exits_s,
                        fixed_s=fixed_s, tax_multiplier=tax)

    def step_cost_columns(self, columns: OpColumns, sets: WorkingSets,
                          dtype: DType,
                          io_bytes: float = 0.0) -> StepCostColumns:
        """:meth:`step_cost` of one graph at many shapes in one numpy pass.

        ``sets`` holds the working sets of every shape (each may be a
        float or an array aligned with the columns).  Each operator is
        costed term for term in ``_op_cost``'s association order, so
        every ``op_totals`` entry is bitwise the scalar
        :attr:`OpCost.total_s`.
        """
        totals = self._column_totals(columns, sets, dtype,
                                     self._step_terms(sets, dtype))
        exits_s, fixed_s, tax = self._step_scalars(io_bytes)
        return StepCostColumns(op_totals=totals, exits_s=exits_s,
                               fixed_s=fixed_s, tax_multiplier=tax)


class CpuCostModel(_CostModel):
    """Operator cost model for CPU deployments."""

    _placement_type = CpuPlacement

    def __init__(self, deployment: Deployment) -> None:
        super().__init__(deployment)
        self.placement = deployment.placement
        self.cpu = self.placement.cpu
        self.numa_policy = self.backend.resolve_numa_policy(self.placement.numa_policy)
        self.hugepages = self.backend.resolve_hugepages(self.placement.hugepages)
        self.amx_available = (self.placement.amx_enabled
                              and self.framework.amx_capable)
        self.llc = CacheModel(self.cpu.llc_bytes_per_socket
                              * self.placement.sockets_used)
        self.walk = WalkModel(self.cpu.page_walk_s, self.profile.walk_multiplier)
        #: Per-core FLOP rate by (runs on the matrix engine, dtype).
        self._per_core_rates: dict[tuple[bool, DType], float] = {}

    # -- compute ------------------------------------------------------------

    def _engine_for(self, category: OpCategory,
                    dtype: DType) -> tuple[Engine, float]:
        if category in _MATRIX_CATEGORIES:
            return best_cpu_engine(dtype, self.amx_available)
        # Vector ops run on AVX-512 regardless of the matrix engine.
        rate = AVX512_RATES.rate_for(dtype)
        if rate == 0.0:
            rate = AVX512_RATES.rates["f32"]
        return Engine.AVX512, rate

    def _per_core_rate(self, category: OpCategory, dtype: DType) -> float:
        key = (category in _MATRIX_CATEGORIES, dtype)
        per_core = self._per_core_rates.get(key)
        if per_core is None:
            engine, rate = self._engine_for(category, dtype)
            mfu = self.framework.mfu(engine)
            per_core = self._per_core_rates[key] = \
                rate * self.cpu.clock_hz * mfu
        return per_core

    def _amdahl(self) -> float:
        """Multi-core share of single-core time (Amdahl's law)."""
        serial = cal.CPU_SERIAL_FRACTION
        return serial + (1.0 - serial) / self.placement.cores

    def _compute_time(self, op: Operator, dtype: DType) -> float:
        if op.flops == 0.0:
            return 0.0
        single_core_s = op.flops / self._per_core_rate(op.category, dtype)
        return single_core_s * self._amdahl()

    # -- memory -------------------------------------------------------------

    def _remote_fraction(self, fallback: bool) -> float:
        if fallback and self.placement.sockets_used > 1:
            return cal.INT8_FALLBACK_REMOTE_FRACTION
        return remote_fraction(self.numa_policy, self.placement.sockets_used)

    def effective_bw(self, fallback: bool = False) -> float:
        """Post-derate DRAM bandwidth visible to the workload."""
        per_socket = self.cpu.mem_bw_per_socket
        saturation = min(1.0, self.placement.cores_per_socket
                         / cal.CORES_TO_SATURATE_BW)
        single_node = (self.numa_policy is NumaPolicy.SINGLE_NODE
                       and self.placement.sockets_used > 1)
        if single_node:
            # SGX exposes one unified node: every byte lives on (at most)
            # one socket's DRAM, so the local side is a single socket and
            # the other socket's cores pull everything over UPI.
            base = per_socket * saturation
        else:
            base = per_socket * self.placement.sockets_used * saturation
        clusters = self.placement.snc_clusters
        if clusters > 1 and not self.backend.is_tee:
            base *= SNC_BANDWIDTH_BONUS
        cluster_penalty = sub_numa_misplacement(clusters, self.backend.is_tee)
        bw = effective_bandwidth(
            base, self.cpu.upi, self._remote_fraction(fallback),
            upi_crypto_derate=(self.profile.upi_crypto_derate
                               if self.placement.sockets_used > 1 else 0.0),
            cluster_penalty=cluster_penalty,
        )
        bw *= (1.0 - self.profile.mem_encryption_derate)
        return bw * self.framework.memory_efficiency()

    def _weight_traffic(self, weight_bytes, dtype: DType, fallback: bool):
        """Streamed weight bytes (a float or an array of them)."""
        traffic = weight_bytes
        if self.framework.weight_bytes_per_param is not None:
            traffic = traffic * (self.framework.weight_bytes_per_param
                                 / dtype.bytes)
        if fallback:
            traffic = traffic * cal.INT8_FALLBACK_TRAFFIC_INFLATION
        return traffic

    def _allocator_inflation(self) -> float:
        return 1.0 if self.placement.tcmalloc \
            else cal.DEFAULT_ALLOCATOR_TRAFFIC_INFLATION

    def _dram_traffic(self, op: Operator, sets: WorkingSets, dtype: DType,
                      fallback: bool) -> dict[str, float]:
        """DRAM-visible bytes per stream after LLC filtering."""
        allocator = self._allocator_inflation()
        weights = self._weight_traffic(op.weight_bytes, dtype, fallback)
        return {
            "weights": self.llc.dram_bytes(weights, sets.weights),
            "kv": self.llc.dram_bytes(op.kv_read_bytes + op.kv_write_bytes,
                                      sets.kv) * allocator,
            "activations": self.llc.dram_bytes(op.activation_bytes,
                                               sets.activations) * allocator,
        }

    # -- translation & paging -----------------------------------------------

    def _page_mix(self) -> list[tuple[int, float]]:
        """(page size, traffic fraction) pairs under the active policy."""
        if self.hugepages is HugepagePolicy.RESERVED_1G:
            return [(HugepagePolicy.RESERVED_1G.page_bytes, 1.0)]
        if self.hugepages is HugepagePolicy.TRANSPARENT_2M:
            return [
                (HugepagePolicy.TRANSPARENT_2M.page_bytes, THP_COVERAGE),
                (PAGE_4K, 1.0 - THP_COVERAGE),
            ]
        return [(PAGE_4K, 1.0)]

    def _walk_terms(self, sets: WorkingSets) -> tuple[tuple, ...]:
        """(stream, page fraction, page bytes, TLB miss rate) per walk term.

        Depends only on the step's working sets, so :meth:`step_cost`
        computes it once for all of the step's operators.  A working
        set may be an array (:meth:`step_cost_columns`); its miss rates
        are then an array too.
        """
        per_core_divisor = max(1, self.placement.cores)
        stream_sets = {"weights": sets.weights, "kv": sets.kv,
                       "activations": sets.activations}
        terms = []
        for page_bytes, fraction in self._page_mix():
            entries = self.cpu.tlb.entries_for(page_bytes)
            for stream, stream_ws in stream_sets.items():
                per_core_ws = stream_ws * fraction / per_core_divisor
                miss = _per_set(streaming_miss_rate, streaming_miss_rate_vec,
                                per_core_ws, page_bytes, entries)
                terms.append((stream, fraction, page_bytes, miss))
        return tuple(terms)

    def _translation_time(self, dram: dict[str, float],
                          walk_terms: tuple[tuple, ...]) -> float:
        total = 0.0
        for stream, fraction, page_bytes, miss in walk_terms:
            total += translation_time(dram[stream] * fraction, page_bytes,
                                      miss, self.walk)
        return total * WALK_SERIAL_FRACTION

    def _epc_bytes(self) -> float:
        return self.cpu.sgx_epc_per_socket * self.placement.sockets_used

    def _paging_time(self, dram_total: float, sets: WorkingSets) -> float:
        if not self.profile.epc_limited:
            return 0.0
        working_set = sets.weights + sets.kv + sets.activations
        return paging_overhead_s(dram_total, working_set, self._epc_bytes())

    # -- the shared loop's parts ---------------------------------------------

    def _step_terms(self, sets: WorkingSets, dtype: DType) -> tuple:
        """The operator-independent inputs of :meth:`_op_cost`."""
        fallback = is_fallback_path(dtype, self.amx_available)
        return fallback, self.effective_bw(fallback), self._walk_terms(sets)

    def _op_cost(self, op: Operator, sets: WorkingSets, dtype: DType,
                 step_terms: tuple) -> OpCost:
        fallback, bw, walk_terms = step_terms
        dram = self._dram_traffic(op, sets, dtype, fallback)
        # Added in stream order, not with sum(): Python 3.12's sum() of
        # floats is compensated and would round differently.
        dram_total = dram["weights"] + dram["kv"] + dram["activations"]
        return OpCost(
            op=op,
            compute_s=self._compute_time(op, dtype),
            memory_s=dram_total / bw,
            translation_s=self._translation_time(dram, walk_terms),
            paging_s=self._paging_time(dram_total, sets),
        )

    def _step_scalars(self, io_bytes: float) -> tuple[float, float, float]:
        """A step's (exit seconds, fixed seconds, tax multiplier)."""
        tax = 1.0 + self.profile.virtualization_tax
        if self.placement.expose_hyperthreads:
            tax += HYPERTHREAD_TAX
        return (self.profile.exit_cost_s * self.profile.exits_per_step,
                self.profile.step_fixed_s, tax)

    def _column_totals(self, columns: OpColumns, sets: WorkingSets,
                       dtype: DType, step_terms: tuple) -> np.ndarray:
        """:meth:`_op_cost`'s ``total_s`` of every operator at every shape.

        The thresholds of the ``*_vec`` twins are the scalar ``<=``
        tests, so each entry is bitwise the scalar value.
        """
        fallback, bw, walk_terms = step_terms
        allocator = self._allocator_inflation()
        flops = columns.flops
        rates = {category: self._per_core_rate(category, dtype)
                 for category in set(columns.categories)}
        per_core = np.array([[rates[category]]
                             for category in columns.categories])
        compute = np.where(flops == 0.0, 0.0,
                           flops / per_core * self._amdahl())
        def dram_fraction(working_set):
            return _per_set(self.llc.dram_fraction,
                            self.llc.dram_fraction_vec, working_set)

        # CacheModel.dram_bytes() per stream, as _dram_traffic() calls it.
        dram = {
            "weights": self._weight_traffic(columns.weight_bytes, dtype,
                                            fallback)
            * dram_fraction(sets.weights),
            "kv": (columns.kv_read_bytes + columns.kv_write_bytes)
            * dram_fraction(sets.kv) * allocator,
            "activations": columns.activation_bytes
            * dram_fraction(sets.activations) * allocator,
        }
        dram_total = dram["weights"] + dram["kv"] + dram["activations"]
        # translation_time() per walk term, accumulated in term order.
        walk_s = self.walk.walk_s
        translation = 0.0
        for stream, fraction, page_bytes, miss in walk_terms:
            translation = (translation + dram[stream] * fraction
                           / page_bytes * miss * walk_s)
        translation = translation * WALK_SERIAL_FRACTION
        # paging_overhead_s() at its default page size and fault cost.
        paging = 0.0
        if self.profile.epc_limited:
            working_set = sets.weights + sets.kv + sets.activations
            paging = (dram_total / PAGE_4K
                      * paging_fraction_vec(working_set, self._epc_bytes())
                      * EPC_FAULT_S)
        return np.maximum(compute, dram_total / bw) + translation + paging


class GpuCostModel(_CostModel):
    """Operator cost model for (confidential) GPU deployments."""

    _placement_type = GpuPlacement

    def __init__(self, deployment: Deployment) -> None:
        super().__init__(deployment)
        self.gpu = deployment.placement.gpu

    def _step_terms(self, sets: WorkingSets,
                    dtype: DType) -> tuple[float, float]:
        """Derated FLOP rate and HBM bandwidth."""
        del sets  # GPU HBM is not LLC-filtered at these working sets
        derate = 1.0 - self.profile.gpu_rate_derate
        rate = (self.gpu.peak_flops(dtype)
                * self.framework.mfu(Engine.CUDA_TENSOR) * derate)
        bw = self.gpu.hbm_bw * self.framework.memory_efficiency() * derate
        # B100-class parts encrypt HBM; the paper projects a CPU-like
        # memory-encryption cost onto that path (§V-D3).
        bw *= 1.0 - self.profile.mem_encryption_derate
        return rate, bw

    def _op_cost(self, op: Operator, sets: WorkingSets, dtype: DType,
                 step_terms: tuple[float, float]) -> OpCost:
        # HBM traffic pays no encryption derate on H100 (its HBM is
        # unprotected — a security gap, not a cost).
        rate, bw = step_terms
        return OpCost(op=op, compute_s=op.flops / rate,
                      memory_s=op.bytes_total / bw,
                      translation_s=0.0, paging_s=0.0)

    def _column_totals(self, columns: OpColumns, sets: WorkingSets,
                       dtype: DType,
                       step_terms: tuple[float, float]) -> np.ndarray:
        rate, bw = step_terms
        bytes_total = (columns.weight_bytes + columns.activation_bytes
                       + columns.kv_read_bytes + columns.kv_write_bytes)
        return np.maximum(columns.flops / rate, bytes_total / bw)

    def _step_scalars(self, io_bytes: float) -> tuple[float, float, float]:
        """No exits or tax; launch tax plus bounce-buffer staging."""
        fixed_s = self.profile.step_fixed_s
        if self.profile.bounce_bw is not None and io_bytes > 0.0:
            fixed_s += (self.gpu.pcie.latency_s
                        + io_bytes / self.profile.bounce_bw)
        return 0.0, fixed_s, 1.0


def cost_model_for(deployment: Deployment) -> CpuCostModel | GpuCostModel:
    """Instantiate the matching cost model for a deployment."""
    if isinstance(deployment.placement, CpuPlacement):
        return CpuCostModel(deployment)
    return GpuCostModel(deployment)
