"""Arrival-process generators: determinism, shape, and regime behavior."""

import hashlib
import math
import statistics

import pytest

from repro.fleet.arrivals import (
    diurnal_table,
    make_arrival_table,
    mmpp_table,
    poisson_table,
    trace_replay,
)

from ..tenancy.test_population import small_population


def gaps(table):
    arrivals = table.arrival_s.tolist()
    return [b - a for a, b in zip(arrivals, arrivals[1:])]


class TestCommonContract:
    @pytest.mark.parametrize("kind", ["poisson", "mmpp", "diurnal"])
    def test_deterministic_and_sorted(self, kind):
        a = make_arrival_table(kind, 50, 4.0, seed=3)
        b = make_arrival_table(kind, 50, 4.0, seed=3)
        assert list(a) == list(b)
        arrivals = a.arrival_s.tolist()
        assert arrivals == sorted(arrivals)
        assert a.request_id.tolist() == list(range(50))

    @pytest.mark.parametrize("kind", ["poisson", "mmpp", "diurnal"])
    def test_seed_changes_stream(self, kind):
        assert list(make_arrival_table(kind, 30, 4.0, seed=1)) != \
            list(make_arrival_table(kind, 30, 4.0, seed=2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            make_arrival_table("weibull", 10, 1.0)


class TestPoisson:
    def test_mean_rate_approximate(self):
        table = poisson_table(400, rate_per_s=5.0, seed=0)
        mean_gap = statistics.fmean(gaps(table))
        assert 0.15 < mean_gap < 0.27  # 1/5 s +- sampling noise

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_table(0, 1.0)
        with pytest.raises(ValueError):
            poisson_table(5, 0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate_per_s must be finite"):
            poisson_table(5, rate)


class TestMmpp:
    def test_burstier_than_poisson(self):
        """MMPP inter-arrival gaps are overdispersed vs exponential.

        The squared coefficient of variation of a Poisson process's
        gaps is 1; a 2-state MMPP with distinct rates exceeds it.
        """
        poisson = poisson_table(600, rate_per_s=4.0, seed=1)
        mmpp = mmpp_table(600, calm_rate_per_s=1.0, burst_rate_per_s=16.0,
                          mean_calm_s=10.0, mean_burst_s=5.0, seed=1)

        def cv2(table):
            g = gaps(table)
            return statistics.variance(g) / statistics.fmean(g) ** 2

        assert cv2(mmpp) > 1.5 * cv2(poisson)

    def test_validation(self):
        with pytest.raises(ValueError):
            mmpp_table(10, 4.0, 2.0)  # burst < calm
        with pytest.raises(ValueError):
            mmpp_table(10, 4.0, 8.0, mean_calm_s=0.0)
        with pytest.raises(ValueError):
            mmpp_table(0, 1.0, 2.0)

    @pytest.mark.parametrize("name, value", [
        ("burst_rate_per_s", math.inf),
        ("calm_rate_per_s", math.nan),
        ("mean_calm_s", math.nan),
        ("mean_burst_s", math.inf),
    ])
    def test_non_finite_parameters_rejected(self, name, value):
        params = {"calm_rate_per_s": 1.0, "burst_rate_per_s": 4.0,
                  name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            mmpp_table(5, **params)


class TestDiurnal:
    def test_peak_denser_than_trough(self):
        """More arrivals land in the peak half-period than the trough."""
        period = 100.0
        table = diurnal_table(800, mean_rate_per_s=6.0, period_s=period,
                              peak_to_trough=6.0, seed=2)
        peak = int(((table.arrival_s % period) < period / 2).sum())
        trough = len(table) - peak
        assert peak > 1.4 * trough

    def test_flat_curve_allowed(self):
        table = diurnal_table(50, 4.0, peak_to_trough=1.0, seed=0)
        assert len(table) == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_table(10, 4.0, peak_to_trough=0.5)
        with pytest.raises(ValueError):
            diurnal_table(10, 0.0)

    @pytest.mark.parametrize("name, value", [
        ("period_s", math.nan),
        ("mean_rate_per_s", math.nan),
        ("peak_to_trough", math.nan),
        ("mean_rate_per_s", math.inf),
    ])
    def test_non_finite_parameters_rejected(self, name, value):
        # Without the guard the thinning loop never returns for these.
        params = {"mean_rate_per_s": 4.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            diurnal_table(10, **params)


class TestTraceReplay:
    def test_exact_replay(self):
        trace = [(0.0, 128, 32), (1.5, 64, 8), (1.5, 256, 16)]
        requests = list(trace_replay(trace))
        assert [(r.arrival_s, r.prompt_tokens, r.output_tokens)
                for r in requests] == trace
        assert [r.request_id for r in requests] == [0, 1, 2]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            trace_replay([])


def _digest(table) -> str:
    columns = (table.request_id, table.arrival_s, table.prompt_tokens,
               table.output_tokens, table.priority, table.tenant_id)
    text = repr([column.tolist() for column in columns])
    return hashlib.sha256(text.encode()).hexdigest()


class TestDrawSequence:
    def test_columns_match_recorded_digests(self):
        """Exact column bytes of each generator's stream, pinned so
        that any change to the draw order (arrivals first, then two
        sizes per request in id order) or to the population merge
        fails here."""
        recorded = {
            "poisson": "671555a412b07c4ee3e9a39776d8e746"
                       "9116a7f7b4619accb5bca6fd893a3210",
            "mmpp": "abf131fe737f7c9fc00e5650ecc4e97a"
                    "83c8573a6466a2f121c2c26295de2dac",
            "diurnal": "8fa963f3e9844370c4720b5a19dd5dc7"
                       "7ed03430e71afa4ab43183d1970154f9",
        }
        for kind, digest in recorded.items():
            assert _digest(make_arrival_table(kind, 50, 4.0, seed=3)) \
                == digest, kind
        trace = [(1.5, 100, 20), (0.25, 64, 8), (0.75, 300, 40),
                 (0.25, 32, 16)]
        assert _digest(trace_replay(trace)) == (
            "d907a38f88c7046d578f863e52957293"
            "b5b4da194bdafb2c0a009c1ca35f96be")
        assert _digest(small_population().table()) == (
            "884f8c83089d13a999f4640a56dc452b"
            "969b3e50e9b33d47b504fcb0b45751fb")
