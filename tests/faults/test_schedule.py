"""Fault schedules: validation, ordering, builders, MTBF hazard."""

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    mtbf_schedule,
    one_shot,
    recurring,
)


class TestFaultEvent:
    def test_crash_needs_no_duration(self):
        event = FaultEvent(5.0, "crash", 0)
        assert event.duration_s == 0.0
        assert event.restart_after_s is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(1.0, "meteor", 0)

    @pytest.mark.parametrize("kind", ["hang", "slowdown", "link_degrade",
                                      "attestation_failure"])
    def test_timed_kinds_need_duration(self, kind):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(1.0, kind, 0, duration_s=0.0,
                       factor=2.0 if kind == "slowdown" else 0.5)

    def test_slowdown_factor_must_exceed_one(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(1.0, "slowdown", 0, duration_s=2.0, factor=0.9)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", ["slowdown", "link_degrade"])
    def test_non_finite_factor_rejected(self, kind, factor):
        with pytest.raises(ValueError, match="factor must be finite"):
            FaultEvent(1.0, kind, 0, duration_s=2.0, factor=factor)

    def test_link_degrade_factor_is_a_fraction(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(1.0, "link_degrade", 0, duration_s=2.0, factor=1.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(-1.0, "crash", 0)

    def test_to_dict_round_trips_fields(self):
        event = FaultEvent(3.0, "slowdown", 1, duration_s=4.0, factor=2.5)
        d = event.to_dict()
        assert d["kind"] == "slowdown"
        assert d["factor"] == 2.5


class TestFaultSchedule:
    def test_events_sorted_by_time_then_replica(self):
        schedule = FaultSchedule((
            FaultEvent(9.0, "crash", 0),
            FaultEvent(1.0, "crash", 1),
            FaultEvent(1.0, "crash", 0),
        ))
        times = [(e.time_s, e.replica_id) for e in schedule]
        assert times == [(1.0, 0), (1.0, 1), (9.0, 0)]

    def test_add_merges_and_resorts(self):
        merged = one_shot("crash", 0, 5.0) + one_shot("crash", 1, 1.0)
        assert [e.time_s for e in merged] == [1.0, 5.0]

    def test_empty(self):
        assert len(FaultSchedule.empty()) == 0
        assert list(FaultSchedule.empty()) == []

    def test_recurring_builder(self):
        schedule = recurring("hang", 0, start_s=2.0, period_s=3.0, count=3,
                             duration_s=1.0)
        assert [e.time_s for e in schedule] == [2.0, 5.0, 8.0]
        assert all(e.kind == "hang" for e in schedule)


class TestMtbfSchedule:
    def test_deterministic_per_seed(self):
        a = mtbf_schedule([0, 1], mtbf_s=10.0, horizon_s=60.0, seed=4)
        b = mtbf_schedule([0, 1], mtbf_s=10.0, horizon_s=60.0, seed=4)
        assert a.to_dicts() == b.to_dicts()

    def test_seed_actually_consumed(self):
        a = mtbf_schedule([0, 1], mtbf_s=10.0, horizon_s=60.0, seed=4)
        b = mtbf_schedule([0, 1], mtbf_s=10.0, horizon_s=60.0, seed=5)
        assert a.to_dicts() != b.to_dicts()

    def test_all_events_inside_horizon(self):
        schedule = mtbf_schedule([0, 1, 2], mtbf_s=5.0, horizon_s=30.0,
                                 seed=1)
        assert all(0 <= e.time_s < 30.0 for e in schedule)
        assert all(e.kind in FAULT_KINDS for e in schedule)

    def test_lower_mtbf_means_more_events(self):
        rare = mtbf_schedule([0], mtbf_s=100.0, horizon_s=200.0, seed=2)
        frequent = mtbf_schedule([0], mtbf_s=5.0, horizon_s=200.0, seed=2)
        assert len(frequent) > len(rare)

    def test_crashes_carry_repair_time(self):
        schedule = mtbf_schedule([0], mtbf_s=2.0, horizon_s=100.0, seed=3)
        crashes = [e for e in schedule if e.kind == "crash"]
        assert crashes, "expected at least one crash at this rate"
        assert all(e.restart_after_s >= 1.0 for e in crashes)

    def test_bad_mtbf_rejected(self):
        with pytest.raises(ValueError):
            mtbf_schedule([0], mtbf_s=0.0, horizon_s=10.0)


class TestFaultInjector:
    def test_due_pops_in_order(self):
        injector = FaultInjector(one_shot("crash", 0, 1.0)
                                 + one_shot("crash", 1, 2.0))
        assert [e.replica_id for e in injector.due(1.5)] == [0]
        assert [e.replica_id for e in injector.due(2.5)] == [1]
        assert injector.exhausted

    def test_record_keeps_applied_history(self):
        injector = FaultInjector(one_shot("crash", 0, 1.0))
        (event,) = injector.due(1.0)
        injector.record(event, applied_s=1.25, effect="crash: evacuated 0")
        assert len(injector.applied) == 1
        assert injector.applied[0].applied_s == 1.25
