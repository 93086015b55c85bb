"""Mid-boot checkpoint/restore and the resumable attestation-tax grid."""

import json

import pytest

from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.fleet import fixed_fleet, poisson_table, replica_spec
from repro.state import attest_grid
from repro.state.runner import SweepRunner, read_journal
from repro.tee.boot import BOOT_PHASES, attest_tax_sweep, boot_profile

SPEC = replica_spec("tdx", max_batch=8, kv_capacity_tokens=16384,
                    boot=boot_profile("tdx"))

FAULTS = FaultSchedule((
    FaultEvent(time_s=12.0, kind="attestation_failure", replica_id=0,
               duration_s=6.0),
))
RETRY = RetryPolicy(timeout_s=60.0, max_attempts=4, seed=3)

STREAM = poisson_table(20, rate_per_s=0.8, mean_prompt=128,
                       mean_output=48, seed=5)


def _fleet():
    return fixed_fleet(SPEC, 2, faults=FAULTS, retry_policy=RETRY)


def event(fleet):
    """Finish an armed run the way ``run()`` does, jumping quiet ticks."""
    while fleet.run_active:
        fleet._skip_quiet_ticks()
        fleet.run_tick()
    return fleet.finish_run()


def stepped(fleet):
    """Finish an armed run with a plain loop that executes every tick."""
    while fleet.run_active:
        fleet.run_tick()
    return fleet.finish_run()


class TestMidBootResume:
    @pytest.mark.parametrize("drive", [event, stepped])
    def test_mid_boot_snapshot_restores_bit_identical(self, drive):
        baseline = _fleet().run(STREAM).to_dict()
        running = _fleet()
        running.begin_run(STREAM)
        snapshots = {}
        while running.run_active:
            running.run_tick()
            now = running.run_clock_s
            for replica in running.replicas:
                phase = replica.boot_phase(now)
                if phase is not None and phase not in snapshots:
                    # The wire format is the contract: JSON round-trip.
                    snapshots[phase] = json.loads(
                        json.dumps(running.to_state()))
        assert running.finish_run().to_dict() == baseline
        # The attestation fault at t=12 restarts replica 0 mid-boot, so
        # every phase (including a re-entered one) gets a snapshot.
        assert set(snapshots) == set(BOOT_PHASES)
        for phase, payload in snapshots.items():
            fresh = _fleet()
            fresh.from_state(payload)
            assert drive(fresh).to_dict() == baseline, phase

    def test_restored_replica_recovers_boot_phase(self):
        running = _fleet()
        running.begin_run(STREAM)
        while running.run_active:
            running.run_tick()
            now = running.run_clock_s
            phase = running.replicas[0].boot_phase(now)
            if phase is not None and phase != BOOT_PHASES[0]:
                break
        payload = json.loads(json.dumps(running.to_state()))
        fresh = _fleet()
        fresh.from_state(payload)
        # Phase identity is derived from ready_s, which round-trips:
        # the restored replica agrees at the snapshot instant.
        assert fresh.replicas[0].boot_phase(now) == phase


class TestAttestGrid:
    def test_grid_rows_match_direct_sweep(self, tmp_path):
        spec = attest_grid(kinds=("tdx",))
        runner = SweepRunner.create(tmp_path / "run", spec)
        rows = runner.run()
        direct = attest_tax_sweep(kinds=("tdx",))
        assert [rows[i] for i in sorted(rows)] == direct

    def test_grid_resumes_after_partial_run(self, tmp_path):
        spec = attest_grid(kinds=("tdx",))
        SweepRunner.create(tmp_path / "run", spec).run(max_points=1)
        journaled = read_journal(tmp_path / "run" / "results.jsonl")
        assert len(journaled) == 1
        # A reopened runner executes only the missing point.
        resumed = SweepRunner.open(tmp_path / "run").run()
        assert len(resumed) == len(spec.points)
        direct = attest_tax_sweep(kinds=("tdx",))
        assert [resumed[i] for i in sorted(resumed)] == direct
