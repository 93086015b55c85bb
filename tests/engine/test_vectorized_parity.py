"""Parity of the vectorized decode-cost engine with the reference loop.

The vectorized path ``simulate_generation`` runs must be numerically
interchangeable with the private scalar reference loop
``_decode_clean_loop`` (<1e-9 relative error), caches must be invisible
(memoized graphs/costs identical to fresh ones), and ``record_steps``
must never perturb the simulated trajectory.
"""

import numpy as np
import pytest

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.engine.placement import Workload
from repro.engine.roofline import cost_model_for
from repro.engine.simulator import (
    _decode_clean_loop,
    _noise,
    decode_step_cost,
    simulate_generation,
)
from repro.engine.vectorized import DecodeCostEngine, decode_cost_engine
from repro.llm.config import LLAMA2_7B, tiny_llama
from repro.llm.datatypes import BFLOAT16, INT8
from repro.llm.graph import (
    cached_decode_step_ops,
    cached_prefill_ops,
    decode_step_affine,
    decode_step_ops,
    prefill_ops,
)
from repro.llm.ops import merge_totals

TINY = tiny_llama()

DEPLOYMENTS = {
    "baremetal": cpu_deployment("baremetal", sockets_used=1),
    "tdx": cpu_deployment("tdx", sockets_used=1),
    "sgx": cpu_deployment("sgx", sockets_used=1),
    "cgpu": gpu_deployment(confidential=True),
}


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.abs(a)))


def _loop(workload, deployment, stride):
    """The reference loop's clean decode trajectory."""
    return _decode_clean_loop(workload, deployment,
                              cost_model_for(deployment), stride)


class TestEngineParity:
    @pytest.mark.parametrize("label", sorted(DEPLOYMENTS))
    @pytest.mark.parametrize("model", [TINY, LLAMA2_7B],
                             ids=["tiny", "7b"])
    def test_vectorized_matches_exact_loop(self, label, model):
        workload = Workload(model, BFLOAT16, batch_size=2, input_tokens=96,
                            output_tokens=24)
        deployment = DEPLOYMENTS[label]
        vec = simulate_generation(workload, deployment, context_stride=1)
        assert _max_rel_err(vec.decode_clean_s,
                            _loop(workload, deployment, 1)) < 1e-9

    def test_int8_fallback_parity(self):
        """The no-AMX int8 fallback inflates traffic; both paths agree."""
        workload = Workload(LLAMA2_7B, INT8, batch_size=1, input_tokens=64,
                            output_tokens=16)
        deployment = cpu_deployment("tdx", sockets_used=1, amx_enabled=False)
        vec = simulate_generation(workload, deployment, context_stride=1)
        assert _max_rel_err(vec.decode_clean_s,
                            _loop(workload, deployment, 1)) < 1e-9

    def test_strided_cadence_matches_loop(self, tdx_1s):
        """Both paths hold a cost for exactly ``stride`` tokens."""
        workload = Workload(TINY, BFLOAT16, batch_size=1, input_tokens=32,
                            output_tokens=30)
        vec = simulate_generation(workload, tdx_1s, context_stride=7)
        assert _max_rel_err(vec.decode_clean_s,
                            _loop(workload, tdx_1s, 7)) < 1e-9
        # the cadence itself: constant within a stride window
        assert len(set(vec.decode_clean_s[:7])) == 1

    def test_noise_draws_unchanged_across_engines(self, tdx_1s):
        """Same seed => same RNG draws, whichever path produced clean."""
        workload = Workload(TINY, BFLOAT16, batch_size=1, input_tokens=32,
                            output_tokens=16)
        vec = simulate_generation(workload, tdx_1s, seed=11)
        loop_clean = _loop(workload, tdx_1s, 1)  # the default stride here
        loop_noisy = _noise(np.random.default_rng(11), loop_clean, True)
        np.testing.assert_allclose(
            loop_noisy / loop_clean,
            vec.decode_noisy_s / vec.decode_clean_s, rtol=1e-12)


class TestCachedGraphs:
    @pytest.mark.parametrize("model", [TINY, LLAMA2_7B], ids=["tiny", "7b"])
    def test_cached_decode_graph_identical_totals(self, model):
        fresh = decode_step_ops(model, BFLOAT16, 2, 130, 1)
        cached = cached_decode_step_ops(model, BFLOAT16, 2, 130, 1)
        assert merge_totals(fresh) == merge_totals(list(cached))
        assert [op.name for op in fresh] == [op.name for op in cached]

    def test_cached_prefill_graph_identical_totals(self):
        fresh = prefill_ops(TINY, BFLOAT16, 2, 64, 1)
        cached = cached_prefill_ops(TINY, BFLOAT16, 2, 64, 1)
        assert merge_totals(fresh) == merge_totals(list(cached))

    def test_cached_graph_is_shared(self):
        a = cached_decode_step_ops(TINY, BFLOAT16, 1, 77, 1)
        b = cached_decode_step_ops(TINY, BFLOAT16, 1, 77, 1)
        assert a == b
        # Every operator but the per-context attention comes from the
        # one shared skeleton.
        assert all(x is y for x, y in zip(a, b) if x.name != "self_attention")

    def test_affine_model_collapses_layers(self):
        affine = decode_step_affine(TINY, BFLOAT16, 1, 1)
        # embed + 11 block ops (collapsed over layers) + final norm + head
        assert len(affine) == 14
        block = {a.name: a for a in affine}
        assert block["qkv_proj"].multiplicity == TINY.num_layers
        assert block["embed_tokens"].multiplicity == 1

    def test_affine_model_reproduces_graph_totals(self):
        context = 513
        ops = decode_step_ops(TINY, BFLOAT16, 2, context, 1)
        totals = merge_totals(ops)
        affine = decode_step_affine(TINY, BFLOAT16, 2, 1)
        assert sum(a.multiplicity * a.flops(context)
                   for a in affine) == pytest.approx(totals["flops"], rel=1e-12)
        assert sum(a.multiplicity * a.kv_read_bytes(context)
                   for a in affine) == pytest.approx(totals["kv_read_bytes"],
                                                     rel=1e-12)


class TestRecordStepsBugfix:
    """``record_steps`` sampling must not perturb the clean trajectory."""

    @pytest.fixture(scope="class")
    def off_stride(self):
        # output 30, stride 7 => sample index 15 is mid-window (15 % 7 = 1)
        return Workload(TINY, BFLOAT16, batch_size=1, input_tokens=32,
                        output_tokens=30)

    def test_clean_independent_of_recording(self, off_stride, tdx_1s):
        plain = simulate_generation(off_stride, tdx_1s, context_stride=7)
        recorded = simulate_generation(off_stride, tdx_1s, context_stride=7,
                                       record_steps=True)
        np.testing.assert_array_equal(plain.decode_clean_s,
                                      recorded.decode_clean_s)

    def test_sample_step_costed_exactly(self, off_stride, tdx_1s):
        result = simulate_generation(off_stride, tdx_1s, context_stride=7,
                                     record_steps=True)
        sample_context = off_stride.input_tokens + off_stride.output_tokens // 2
        exact = decode_step_cost(off_stride, tdx_1s, sample_context)
        assert result.sample_decode_step.total_s == exact.total_s
        # ... while the clean trajectory keeps the stride-cadence cost.
        window_context = off_stride.input_tokens + 14  # last recompute at 14
        cadence = decode_step_cost(off_stride, tdx_1s, window_context)
        assert result.decode_clean_s[15] == cadence.total_s


class TestEngineCache:
    def test_engine_shared_across_input_lengths(self, tdx_1s):
        """The cost curve is shape-keyed: input sweeps reuse one engine."""
        short = Workload(TINY, BFLOAT16, batch_size=4, input_tokens=64,
                         output_tokens=8)
        long = short.with_(input_tokens=384)
        assert decode_cost_engine(short, tdx_1s) \
            is decode_cost_engine(long, tdx_1s)

    def test_engine_distinct_across_batch(self, tdx_1s):
        a = Workload(TINY, BFLOAT16, batch_size=1, input_tokens=64,
                     output_tokens=8)
        b = a.with_(batch_size=2)
        assert decode_cost_engine(a, tdx_1s) \
            is not decode_cost_engine(b, tdx_1s)

    def test_uncached_engine_matches_cached(self, sgx_1s):
        workload = Workload(TINY, BFLOAT16, batch_size=2, input_tokens=48,
                            output_tokens=8)
        contexts = np.arange(48, 56)
        fresh = DecodeCostEngine(workload, sgx_1s).step_costs(contexts)
        cached = decode_cost_engine(workload, sgx_1s).step_costs(contexts)
        np.testing.assert_array_equal(fresh, cached)
