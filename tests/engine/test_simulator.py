"""Generation simulator: shapes, determinism, noise, strides."""

import numpy as np
import pytest

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.engine.placement import Workload
from repro.engine.simulator import simulate_encode, simulate_generation
from repro.llm.config import LLAMA2_7B, SBERT_BASE
from repro.llm.datatypes import BFLOAT16


@pytest.fixture(scope="module")
def workload():
    return Workload(LLAMA2_7B, BFLOAT16, batch_size=2, input_tokens=128,
                    output_tokens=32)


@pytest.fixture(scope="module")
def deployment():
    return cpu_deployment("tdx", sockets_used=1)


class TestShapes:
    def test_one_step_per_output_token(self, workload, deployment):
        result = simulate_generation(workload, deployment)
        assert result.decode_clean_s.shape == (32,)
        assert result.decode_noisy_s.shape == (32,)

    def test_prefill_positive(self, workload, deployment):
        assert simulate_generation(workload, deployment).prefill_s > 0

    def test_throughput_definitions(self, workload, deployment):
        result = simulate_generation(workload, deployment)
        assert result.decode_throughput_tok_s > result.throughput_tok_s
        assert result.total_time_s == pytest.approx(
            result.prefill_s + result.decode_time_s)

    def test_metadata(self, workload, deployment):
        result = simulate_generation(workload, deployment)
        assert result.backend_name == "tdx"
        assert result.framework_name == "ipex"


class TestDeterminismAndNoise:
    def test_same_seed_same_noise(self, workload, deployment):
        a = simulate_generation(workload, deployment, seed=7)
        b = simulate_generation(workload, deployment, seed=7)
        np.testing.assert_array_equal(a.decode_noisy_s, b.decode_noisy_s)

    def test_different_seed_different_noise(self, workload, deployment):
        a = simulate_generation(workload, deployment, seed=1)
        b = simulate_generation(workload, deployment, seed=2)
        assert not np.array_equal(a.decode_noisy_s, b.decode_noisy_s)

    def test_clean_is_noise_free(self, workload, deployment):
        a = simulate_generation(workload, deployment, seed=1)
        b = simulate_generation(workload, deployment, seed=2)
        np.testing.assert_array_equal(a.decode_clean_s, b.decode_clean_s)

    def test_tee_noisier_than_baremetal(self, workload):
        def spread(backend):
            many = Workload(LLAMA2_7B, BFLOAT16, batch_size=1,
                            input_tokens=64, output_tokens=256)
            result = simulate_generation(many, cpu_deployment(
                backend, sockets_used=1), seed=5)
            samples = result.decode_noisy_s / result.decode_clean_s
            return samples.std()
        assert spread("tdx") > spread("baremetal")

    def test_tee_produces_outliers(self):
        """~0.64% of TEE samples should be Z>3 outliers (§III-D)."""
        from repro.core.metrics import outlier_fraction
        many = Workload(LLAMA2_7B, BFLOAT16, batch_size=1, input_tokens=64,
                        output_tokens=2048)
        result = simulate_generation(many, cpu_deployment(
            "tdx", sockets_used=1), seed=3)
        fraction = outlier_fraction(result.decode_noisy_s)
        assert 0.001 < fraction < 0.03


class TestContextStride:
    def test_stride_one_is_exact(self, workload, deployment):
        exact = simulate_generation(workload, deployment, context_stride=1)
        approx = simulate_generation(workload, deployment, context_stride=8)
        assert approx.decode_time_s == pytest.approx(exact.decode_time_s,
                                                     rel=0.02)

    def test_invalid_stride(self, workload, deployment):
        with pytest.raises(ValueError):
            simulate_generation(workload, deployment, context_stride=0)

    @pytest.mark.parametrize("stride", [
        -1, 2.5, 2.0, float("nan"), float("inf"), True, np.bool_(True),
        np.float64(2.0), "2"])
    def test_non_int_stride_rejected(self, workload, deployment, stride):
        with pytest.raises(ValueError, match="context_stride"):
            simulate_generation(workload, deployment, context_stride=stride)

    def test_numpy_int_stride_accepted(self, workload, deployment):
        plain = simulate_generation(workload, deployment, context_stride=3)
        numpy = simulate_generation(workload, deployment,
                                    context_stride=np.int64(3))
        np.testing.assert_array_equal(plain.decode_clean_s,
                                      numpy.decode_clean_s)

    def test_costs_grow_with_context(self, deployment):
        long_run = Workload(LLAMA2_7B, BFLOAT16, batch_size=8,
                            input_tokens=64, output_tokens=512)
        result = simulate_generation(long_run, deployment, context_stride=1)
        assert result.decode_clean_s[-1] > result.decode_clean_s[0]


class TestTraceRecording:
    def test_records_on_request(self, workload, deployment):
        result = simulate_generation(workload, deployment, record_steps=True)
        assert result.prefill_step is not None
        assert result.sample_decode_step is not None
        assert len(result.decode_trace()) > 0

    def test_no_recording_by_default(self, workload, deployment):
        result = simulate_generation(workload, deployment)
        with pytest.raises(ValueError, match="record_steps"):
            result.decode_trace()


class TestGpuPath:
    def test_gpu_runs(self, workload):
        result = simulate_generation(workload, gpu_deployment())
        assert result.decode_throughput_tok_s > 0

    def test_gpu_much_faster_than_cpu(self, workload, deployment):
        cpu = simulate_generation(workload, deployment)
        gpu = simulate_generation(workload, gpu_deployment(confidential=False))
        assert gpu.decode_throughput_tok_s > 5 * cpu.decode_throughput_tok_s


class TestEncode:
    def test_encode_positive(self):
        workload = Workload(SBERT_BASE, BFLOAT16, batch_size=8,
                            input_tokens=64)
        seconds = simulate_encode(workload, cpu_deployment(
            "tdx", sockets_used=1))
        assert 0 < seconds < 1.0

    def test_encode_rejects_decoder(self, deployment):
        workload = Workload(LLAMA2_7B, BFLOAT16, batch_size=1,
                            input_tokens=64)
        with pytest.raises(ValueError, match="encoder"):
            simulate_encode(workload, deployment)
