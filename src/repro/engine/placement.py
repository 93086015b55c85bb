"""Workload and placement descriptions.

A :class:`Workload` says *what* runs (model, dtype, batch, input/output
lengths, beam); a placement says *where and how* (which system, how many
cores/sockets, AMX on or off, NUMA/hugepage policies, allocator, SNC).
Together with a TEE backend and a framework they form a
:class:`Deployment`, the unit the simulator executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import guards
from ..hardware.cpu import CpuSpec
from ..hardware.gpu import GpuSpec
from ..llm.config import ModelConfig
from ..llm.datatypes import DType
from ..memsim.numa import NumaPolicy
from ..memsim.pages import HugepagePolicy
from ..frameworks.base import Framework
from ..tee.base import Backend, MechanismToggles


@dataclass(frozen=True)
class Workload:
    """One inference workload.

    Attributes:
        model: Transformer architecture.
        dtype: Inference datatype.
        batch_size: Independent sequences per step.
        input_tokens: Prompt length.
        output_tokens: Generated tokens per sequence.
        beam_size: Beam width (multiplies decode-step sequence count).
    """

    model: ModelConfig
    dtype: DType
    batch_size: int = 1
    input_tokens: int = 1024
    output_tokens: int = 128
    beam_size: int = 1

    def __post_init__(self) -> None:
        for field_name in ("batch_size", "input_tokens", "output_tokens",
                           "beam_size"):
            guards.count(f"workload {field_name}", getattr(self, field_name),
                         ge=1)
        if not self.model.encoder_only:
            total = self.input_tokens + self.output_tokens
            if total > self.model.max_position:
                raise ValueError(
                    f"{self.model.name} supports {self.model.max_position} "
                    f"positions, workload needs {total}")

    @property
    def sequences(self) -> int:
        """Concurrent sequences during decode (batch * beams)."""
        return self.batch_size * self.beam_size

    @property
    def user_tokens(self) -> int:
        """Tokens delivered to users (beams collapse to one output)."""
        return self.batch_size * self.output_tokens

    def with_(self, **changes: object) -> "Workload":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CpuPlacement:
    """CPU resource assignment.

    Attributes:
        cpu: The CPU system.
        sockets_used: Sockets the workload spans.
        cores_per_socket_used: Cores used per socket (``None`` = all).
        amx_enabled: Whether AMX tiles are available to the framework.
        numa_policy: Requested placement policy (backends may override).
        hugepages: Requested page backing (TDX downgrades 1G to THP).
        snc_clusters: Sub-NUMA clustering domains per socket (1 = off).
        tcmalloc: Use TCMalloc instead of glibc malloc (§IV-D).
        expose_hyperthreads: Expose the second logical thread to the
            guest (adds noise and scheduling tax, §IV-A).
    """

    cpu: CpuSpec
    sockets_used: int = 1
    cores_per_socket_used: int | None = None
    amx_enabled: bool = True
    numa_policy: NumaPolicy = NumaPolicy.BOUND
    hugepages: HugepagePolicy = HugepagePolicy.TRANSPARENT_2M
    snc_clusters: int = 1
    tcmalloc: bool = True
    expose_hyperthreads: bool = False

    def __post_init__(self) -> None:
        guards.count("sockets_used", self.sockets_used)
        if self.cores_per_socket_used is not None:
            guards.count("cores_per_socket_used", self.cores_per_socket_used)
        guards.count("snc_clusters", self.snc_clusters)
        if not 1 <= self.sockets_used <= self.cpu.sockets:
            raise ValueError(
                f"sockets_used must be in [1, {self.cpu.sockets}]")
        cores = self.cores_per_socket_used
        if cores is not None and not 1 <= cores <= self.cpu.cores_per_socket:
            raise ValueError(
                f"cores_per_socket_used must be in [1, {self.cpu.cores_per_socket}]")
        if self.snc_clusters < 1:
            raise ValueError("snc_clusters must be >= 1")

    @property
    def cores(self) -> int:
        """Total physical cores in use."""
        per_socket = (self.cores_per_socket_used
                      if self.cores_per_socket_used is not None
                      else self.cpu.cores_per_socket)
        return per_socket * self.sockets_used

    @property
    def cores_per_socket(self) -> int:
        return self.cores // self.sockets_used

    def with_(self, **changes: object) -> "CpuPlacement":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class GpuPlacement:
    """GPU resource assignment (single device, as in the paper)."""

    gpu: GpuSpec

    def with_(self, **changes: object) -> "GpuPlacement":
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Deployment:
    """A complete execution environment: placement + backend + framework."""

    placement: CpuPlacement | GpuPlacement
    backend: Backend
    framework: Framework
    toggles: MechanismToggles = field(default_factory=MechanismToggles)

    def __post_init__(self) -> None:
        placement_device = "cpu" if isinstance(self.placement, CpuPlacement) else "gpu"
        if self.backend.device != placement_device:
            raise ValueError(
                f"backend {self.backend.name!r} is a {self.backend.device} "
                f"backend but the placement is {placement_device}")
        if self.framework.device != placement_device:
            raise ValueError(
                f"framework {self.framework.name!r} targets "
                f"{self.framework.device}, placement is {placement_device}")

    def validate_workload(self, workload: Workload) -> None:
        """Reject impossible workload/deployment combinations."""
        if not self.framework.supports(workload.dtype):
            raise ValueError(
                f"{self.framework.name} does not support {workload.dtype.name}")
        if isinstance(self.placement, GpuPlacement):
            weight_bytes = weight_footprint(workload, self.framework)
            context = workload.input_tokens + workload.output_tokens
            kv_bytes = (workload.sequences * context
                        * workload.model.kv_bytes_per_token(workload.dtype.bytes))
            if weight_bytes + kv_bytes > self.placement.gpu.hbm_bytes:
                raise ValueError(
                    f"{workload.model.name} ({weight_bytes / 1e9:.0f} GB weights "
                    f"+ {kv_bytes / 1e9:.0f} GB KV) does not fit "
                    f"{self.placement.gpu.name} HBM")
        else:
            weight_bytes = weight_footprint(workload, self.framework)
            capacity = (self.placement.cpu.mem_per_socket_bytes
                        * self.placement.sockets_used)
            if weight_bytes > capacity:
                raise ValueError(
                    f"{workload.model.name} weights exceed the memory of "
                    f"{self.placement.sockets_used} socket(s)")


def weight_footprint(workload: Workload, framework: Framework) -> float:
    """Weight footprint honouring framework dtype overrides (llama.cpp)."""
    per_param = (framework.weight_bytes_per_param
                 if framework.weight_bytes_per_param is not None
                 else workload.dtype.bytes)
    return workload.model.num_parameters * per_param
