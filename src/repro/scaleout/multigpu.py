"""Multi-GPU inference under (non-)confidential interconnects.

Models the §V-D4 scale-up/scale-out discussion: sharding a model over
several H100s shrinks per-device weight/KV traffic, but confidential
mode forbids NVLink and routes the tensor-parallel all-reduces through
the host at ~3 GB/s, which throttles exactly the throughput-hungry
patterns the paper names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..engine.placement import Deployment, GpuPlacement, Workload
from ..frameworks.base import VLLM_GPU
from ..hardware.gpu import GpuSpec, H100_NVL
from ..llm.graph import decode_step_ops
from ..tee.base import backend_by_name
from .comm import Parallelism, volume_for
from .links import EffectiveLink, gpu_link


@dataclass(frozen=True)
class MultiGpuResult:
    """One multi-GPU configuration's decode-phase estimate.

    Attributes:
        devices: GPU count.
        confidential: Security posture.
        link: The inter-device channel actually used.
        step_s: Decode-step time (compute/memory + communication).
        comm_s: Communication share of the step.
        throughput_tok_s: User tokens per second in steady decode.
    """

    devices: int
    confidential: bool
    link: EffectiveLink
    step_s: float
    comm_s: float
    throughput_tok_s: float

    @property
    def comm_fraction(self) -> float:
        return self.comm_s / self.step_s if self.step_s else 0.0


def fits(workload: Workload, gpu: GpuSpec, devices: int) -> bool:
    """Whether weights + KV fit the aggregate HBM of ``devices`` GPUs."""
    weights = workload.model.weight_bytes(workload.dtype.bytes)
    context = workload.input_tokens + workload.output_tokens
    kv = (workload.sequences * context
          * workload.model.kv_bytes_per_token(workload.dtype.bytes))
    return weights + kv <= devices * gpu.hbm_bytes


def simulate_multi_gpu(workload: Workload, devices: int,
                       confidential: bool, gpu: GpuSpec = H100_NVL,
                       parallelism: Parallelism = Parallelism.TENSOR,
                       context_len: int | None = None) -> MultiGpuResult:
    """Estimate a sharded decode step on ``devices`` GPUs.

    Compute and memory scale with the shard (1/devices of weights, KV
    and FLOPs of the one-block twin's operators, then repeated);
    communication is priced on the best link the security posture allows.

    Raises:
        ValueError: If the model does not fit the aggregate HBM, or
            devices < 1.
    """
    if devices < 1:
        raise ValueError("devices must be >= 1")
    if not fits(workload, gpu, devices):
        raise ValueError(
            f"{workload.model.name} does not fit {devices}x {gpu.name}")
    context = context_len if context_len is not None else (
        workload.input_tokens + workload.output_tokens // 2)

    backend = backend_by_name("cgpu" if confidential else "gpu")
    deployment = Deployment(placement=GpuPlacement(gpu=gpu), backend=backend,
                            framework=VLLM_GPU)
    from ..engine.roofline import GpuCostModel, WorkingSets
    model = GpuCostModel(deployment)
    ops = decode_step_ops(replace(workload.model, num_layers=1),
                          workload.dtype, workload.batch_size, context,
                          workload.beam_size)
    sharded = [op.scaled(1.0 / devices) for op in ops]
    sets = WorkingSets(weights=0.0, kv=0.0, activations=0.0)
    step = replace(model.step_cost(sharded, sets, workload.dtype),
                   num_layers=workload.model.num_layers)

    link = gpu_link(gpu, confidential)
    volume = volume_for(parallelism, workload.model, workload.dtype,
                        devices, tokens_per_step=float(workload.sequences))
    comm_s = (volume.bytes_per_step / link.bandwidth_bytes_s
              + volume.messages_per_step * link.latency_s)
    step_s = step.total_s + comm_s
    return MultiGpuResult(
        devices=devices,
        confidential=confidential,
        link=link,
        step_s=step_s,
        comm_s=comm_s,
        throughput_tok_s=workload.batch_size / step_s,
    )


def confidential_scaling_penalty(workload: Workload, devices: int,
                                 gpu: GpuSpec = H100_NVL) -> float:
    """Throughput fraction lost by going confidential at a device count.

    The §V-D4 headline: CPU-routed 3 GB/s copies (vs NVLink) cost
    throughput-hungry parallel patterns most of their scaling.
    """
    plain = simulate_multi_gpu(workload, devices, confidential=False,
                               gpu=gpu)
    secure = simulate_multi_gpu(workload, devices, confidential=True,
                                gpu=gpu)
    return 1.0 - secure.throughput_tok_s / plain.throughput_tok_s
