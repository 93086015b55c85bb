"""Overhead computation and the experiment runner."""

import pytest

from repro.core.experiment import Experiment, cpu_deployment
from repro.core.overhead import compare, latency_overhead, throughput_overhead
from repro.engine.placement import Workload
from repro.engine.simulator import simulate_generation
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16


@pytest.fixture(scope="module")
def pair():
    workload = Workload(LLAMA2_7B, BFLOAT16, batch_size=1, input_tokens=128,
                        output_tokens=16)
    base = simulate_generation(workload, cpu_deployment("baremetal",
                                                        sockets_used=1))
    tdx = simulate_generation(workload, cpu_deployment("tdx",
                                                       sockets_used=1))
    return base, tdx


class TestOverheads:
    def test_directions(self, pair):
        base, tdx = pair
        assert throughput_overhead(tdx, base) > 0
        assert latency_overhead(tdx, base) > 0

    def test_self_comparison_zero(self, pair):
        base, _ = pair
        assert throughput_overhead(base, base) == 0.0
        assert latency_overhead(base, base, filtered=False) == 0.0

    def test_filtered_close_to_clean(self, pair):
        base, tdx = pair
        filtered = latency_overhead(tdx, base, filtered=True)
        clean = latency_overhead(tdx, base, filtered=False)
        assert filtered == pytest.approx(clean, abs=0.05)

    def test_compare_report(self, pair):
        base, tdx = pair
        report = compare(tdx, base)
        assert report.backend == "tdx"
        assert report.baseline == "baremetal"
        tput_pct, lat_pct = report.as_percent()
        assert tput_pct == pytest.approx(100 * report.throughput_overhead)
        assert lat_pct == pytest.approx(100 * report.latency_overhead)


class TestExperiment:
    @pytest.fixture(scope="class")
    def outcome(self):
        workload = Workload(LLAMA2_7B, BFLOAT16, batch_size=1,
                            input_tokens=128, output_tokens=16)
        experiment = Experiment(
            name="t", workload=workload,
            deployments={
                "baremetal": cpu_deployment("baremetal", sockets_used=1),
                "tdx": cpu_deployment("tdx", sockets_used=1),
            })
        return experiment.run()

    def test_all_labels_present(self, outcome):
        assert set(outcome.results) == {"baremetal", "tdx"}

    def test_overhead_vs_baseline(self, outcome):
        assert outcome.overhead("tdx").throughput_overhead > 0

    def test_rows_table(self, outcome):
        rows = outcome.rows()
        assert len(rows) == 2
        tdx_row = next(row for row in rows if row["label"] == "tdx")
        assert tdx_row["throughput_overhead_pct"] > 0
        assert tdx_row["next_token_latency_ms"] > 0

    def test_missing_baseline_rejected(self):
        workload = Workload(LLAMA2_7B, BFLOAT16, output_tokens=16)
        experiment = Experiment(
            name="bad", workload=workload,
            deployments={"tdx": cpu_deployment("tdx", sockets_used=1)})
        with pytest.raises(ValueError, match="baseline"):
            experiment.run()

    def test_unknown_label(self, outcome):
        with pytest.raises(KeyError):
            outcome.overhead("sev")

    @pytest.mark.parametrize("stride", [0, 2.5, float("nan"), True])
    def test_bad_context_stride_rejected(self, stride):
        workload = Workload(LLAMA2_7B, BFLOAT16, output_tokens=16)
        experiment = Experiment(
            name="bad", workload=workload, context_stride=stride,
            deployments={"baremetal": cpu_deployment("baremetal",
                                                     sockets_used=1)})
        with pytest.raises(ValueError, match="context_stride"):
            experiment.run()
