"""Parity of the decode column pass with the scalar reference loop.

The clean decode trajectory ``simulate_generation`` computes in one
column pass must equal the private scalar reference loop
``_decode_clean_loop`` bit for bit, the twin's rows summed in graph
order must equal the full graph's, and ``record_steps`` must never
perturb the simulated trajectory.
"""

from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
import pytest

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.engine.placement import Workload
from repro.engine.roofline import cost_model_for, one_block_sums
from repro.engine.simulator import (
    _decode_clean_loop,
    _decode_steps_s,
    _noise,
    decode_step_cost,
    simulate_generation,
)
from repro.llm.config import LLAMA2_7B, LLAMA2_70B, tiny_llama
from repro.llm.datatypes import BFLOAT16, INT8
from repro.llm.graph import decode_columns, decode_step_ops
from repro.llm.ops import OP_FIELDS, merge_totals
from repro.memo import clear_all_caches

TINY = tiny_llama()

DEPLOYMENTS = {
    "baremetal": cpu_deployment("baremetal", sockets_used=1),
    "tdx": cpu_deployment("tdx", sockets_used=1),
    "tdx-2s": cpu_deployment("tdx", sockets_used=2),
    "sgx": cpu_deployment("sgx", sockets_used=1),
    "cgpu": gpu_deployment(confidential=True),
}

#: (id, model, dtype, batch, beams, deployment label) of each parity case.
PARITY_CASES = [
    *((f"{name}-{label}", model, BFLOAT16, 2, 1, label)
      for name, model in (("tiny", TINY), ("7b", LLAMA2_7B))
      for label in ("baremetal", "cgpu", "sgx", "tdx")),
    ("70b-tdx-2s", LLAMA2_70B, BFLOAT16, 2, 1, "tdx-2s"),
    ("70b-sgx", LLAMA2_70B, BFLOAT16, 1, 1, "sgx"),
    ("70b-int8-cgpu", LLAMA2_70B, INT8, 1, 1, "cgpu"),
    ("7b-int8-tdx", LLAMA2_7B, INT8, 4, 1, "tdx"),
    ("7b-beams-tdx-2s", LLAMA2_7B, BFLOAT16, 2, 4, "tdx-2s"),
    ("7b-beams-cgpu", LLAMA2_7B, BFLOAT16, 2, 4, "cgpu"),
    ("7b-int8-beams-sgx", LLAMA2_7B, INT8, 1, 4, "sgx"),
]


def _loop(workload, deployment, stride):
    """The reference loop's clean decode trajectory."""
    return _decode_clean_loop(workload, deployment,
                              cost_model_for(deployment), stride)


class TestEngineParity:
    @pytest.mark.parametrize(
        "model, dtype, batch, beams, label",
        [case[1:] for case in PARITY_CASES],
        ids=[case[0] for case in PARITY_CASES])
    def test_vectorized_matches_exact_loop(self, model, dtype, batch, beams,
                                           label):
        workload = Workload(model, dtype, batch_size=batch, input_tokens=96,
                            output_tokens=24, beam_size=beams)
        deployment = DEPLOYMENTS[label]
        result = simulate_generation(workload, deployment, context_stride=1)
        np.testing.assert_array_equal(result.decode_clean_s,
                                      _loop(workload, deployment, 1))

    def test_int8_fallback_parity(self):
        """The no-AMX int8 fallback inflates traffic; both paths agree."""
        workload = Workload(LLAMA2_7B, INT8, batch_size=1, input_tokens=64,
                            output_tokens=16)
        deployment = cpu_deployment("tdx", sockets_used=1, amx_enabled=False)
        result = simulate_generation(workload, deployment, context_stride=1)
        np.testing.assert_array_equal(result.decode_clean_s,
                                      _loop(workload, deployment, 1))

    def test_strided_cadence_matches_loop(self, tdx_1s):
        """Both paths hold a cost for exactly ``stride`` tokens."""
        workload = Workload(TINY, BFLOAT16, batch_size=1, input_tokens=32,
                            output_tokens=30)
        result = simulate_generation(workload, tdx_1s, context_stride=7)
        np.testing.assert_array_equal(result.decode_clean_s,
                                      _loop(workload, tdx_1s, 7))
        # the cadence itself: constant within a stride window
        assert len(set(result.decode_clean_s[:7])) == 1

    def test_noise_draws_unchanged_across_engines(self, tdx_1s):
        """Same seed => same RNG draws, whichever path produced clean."""
        workload = Workload(TINY, BFLOAT16, batch_size=1, input_tokens=32,
                            output_tokens=16)
        result = simulate_generation(workload, tdx_1s, seed=11)
        loop_clean = _loop(workload, tdx_1s, 1)  # the default stride here
        loop_noisy = _noise(np.random.default_rng(11), loop_clean, True)
        np.testing.assert_array_equal(loop_noisy, result.decode_noisy_s)


class TestCachedGraphs:
    def test_one_block_sums_equal_full_graph_sums(self):
        """The twin's rows, expanded and summed, are the full graph's
        columns summed left to right."""
        batches, contexts = [2, 2, 5], [130, 513, 4000]
        twin = decode_columns(replace(LLAMA2_7B, num_layers=1), BFLOAT16,
                              batches, contexts)
        full = decode_columns(LLAMA2_7B, BFLOAT16, batches, contexts)
        for plane in range(len(OP_FIELDS)):
            assert one_block_sums(twin, twin.fields[plane],
                                  LLAMA2_7B.num_layers).tolist() \
                == [reduce(add, column, 0.0)
                    for column in full.fields[plane].T.tolist()]

    def test_one_block_sums_reproduce_graph_totals(self):
        """Summed left to right, each field equals merge_totals exactly."""
        context = 513
        totals = merge_totals(decode_step_ops(LLAMA2_7B, BFLOAT16, 2,
                                              context, 1))
        twin = decode_columns(replace(LLAMA2_7B, num_layers=1), BFLOAT16,
                              [2], [context])
        for plane, field in enumerate(OP_FIELDS):
            (total,) = one_block_sums(twin, twin.fields[plane],
                                      LLAMA2_7B.num_layers).tolist()
            assert total == totals[field], field


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
    """The decode pass keeps no memo of its own: a step's cost is keyed by
    its shape and context alone, and a cold pass equals a warm one."""

    def test_engine_shared_across_input_lengths(self, tdx_1s):
        """Prompt and output lengths do not change a context's cost."""
        short = Workload(TINY, BFLOAT16, batch_size=4, input_tokens=64,
                         output_tokens=8)
        long = short.with_(input_tokens=384, output_tokens=64)
        contexts = np.array([400, 401, 447])
        model = cost_model_for(tdx_1s)
        assert _decode_steps_s(short, tdx_1s, model, contexts) \
            == _decode_steps_s(long, tdx_1s, model, contexts)

    def test_engine_distinct_across_batch(self, tdx_1s):
        a = Workload(TINY, BFLOAT16, batch_size=1, input_tokens=64,
                     output_tokens=8)
        b = a.with_(batch_size=2)
        contexts = np.array([64, 65])
        model = cost_model_for(tdx_1s)
        assert _decode_steps_s(a, tdx_1s, model, contexts) \
            != _decode_steps_s(b, tdx_1s, model, contexts)

    def test_uncached_engine_matches_cached(self, sgx_1s):
        """A context costs the same alone, beside others, cold or warm."""
        workload = Workload(TINY, BFLOAT16, batch_size=2, input_tokens=48,
                            output_tokens=8)
        contexts = np.arange(48, 56)
        model = cost_model_for(sgx_1s)
        clear_all_caches()
        cold = _decode_steps_s(workload, sgx_1s, model, contexts)
        alone = [_decode_steps_s(workload, sgx_1s, model, contexts[[k]])[0]
                 for k in range(contexts.size)]
        assert cold == alone \
            == _decode_steps_s(workload, sgx_1s, model, contexts)
