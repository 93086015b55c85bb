"""Unit tests: the top-level snapshot/restore API and its guards.

Bit-identical resume parity over full configurations is pinned by the
``state.*`` audit checks (which the pytest adapter already runs); these
tests cover the API contract — payload shape, disk round-trips, and the
refusal paths restore must take on mismatched or tampered input.
"""

import json

import pytest

from repro.fleet import fixed_fleet, poisson_table, replica_spec
from repro.state import (
    CURRENT_STATE_VERSION,
    StateIntegrityError,
    StateSchemaError,
    StateVersionError,
)
from repro.state.checkpoint import (
    FLEET_SNAPSHOT_KIND,
    read_snapshot,
    restore,
    snapshot,
    write_snapshot,
)


def _spec(kind="tdx"):
    return replica_spec(kind, max_batch=16, kv_capacity_tokens=65536)


def _fleet(count=1, kind="tdx"):
    return fixed_fleet(_spec(kind), count)


def _stream(n=6, seed=3):
    return poisson_table(n, rate_per_s=4.0, mean_prompt=64,
                         mean_output=16, seed=seed)


class TestSnapshotShape:
    def test_payload_is_versioned_discriminated_strict_json(self):
        payload = snapshot(_fleet())
        assert payload["state_version"] == CURRENT_STATE_VERSION
        assert payload["kind"] == FLEET_SNAPSHOT_KIND
        # Strict JSON: no NaN/inf anywhere, round-trips losslessly.
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload

    def test_idle_fleet_roundtrips(self):
        fresh = _fleet()
        restore(fresh, snapshot(_fleet()))
        assert snapshot(fresh) == snapshot(_fleet())

    def test_mid_run_snapshot_resumes_to_identical_report(self):
        stream = _stream()
        baseline = _fleet().run(stream)
        running = _fleet()
        running.begin_run(stream)
        running.run_tick()
        running.run_tick()
        fresh = _fleet()
        restore(fresh, json.loads(json.dumps(snapshot(running))))
        while fresh.run_active:
            fresh.run_tick()
        assert fresh.finish_run().to_dict() == baseline.to_dict()


class TestRestoreGuards:
    def test_wrong_kind_refused(self):
        payload = dict(snapshot(_fleet()), kind="something_else")
        with pytest.raises(StateSchemaError, match="something_else"):
            restore(_fleet(), payload)

    def test_newer_version_refused(self):
        payload = dict(snapshot(_fleet()),
                       state_version=CURRENT_STATE_VERSION + 1)
        with pytest.raises(StateVersionError):
            restore(_fleet(), payload)

    def test_restore_into_different_fleet_size_refused(self):
        payload = snapshot(_fleet(count=2))
        with pytest.raises(StateIntegrityError, match="replica count"):
            restore(_fleet(count=1), payload)

    def test_restore_into_different_tick_refused(self):
        payload = snapshot(_fleet())
        target = fixed_fleet(_spec(), 1, tick_s=0.125)
        with pytest.raises(StateIntegrityError, match="tick"):
            restore(target, payload)

    def test_restore_into_mid_run_simulator_refused(self):
        busy = _fleet()
        busy.begin_run(_stream())
        busy.run_tick()
        with pytest.raises(StateIntegrityError, match="freshly built"):
            restore(busy, snapshot(_fleet()))

    def test_tampered_reference_refused(self):
        running = _fleet()
        running.begin_run(_stream())
        running.run_tick()
        payload = snapshot(running)
        held = json.loads(json.dumps(payload))
        held["state"]["run"]["held"] = [987654]
        with pytest.raises(StateIntegrityError, match="unknown request"):
            restore(_fleet(), held)
        head = json.loads(json.dumps(payload))
        head["state"]["run"]["pending_head"] = 10_000
        with pytest.raises(StateIntegrityError, match="out of range"):
            restore(_fleet(), head)

    @staticmethod
    def _running_payload():
        running = _fleet()
        running.begin_run(_stream())
        running.run_tick()
        running.run_tick()
        payload = json.loads(json.dumps(snapshot(running)))
        scheduler = payload["state"]["replicas"][0]["scheduler"]
        assert scheduler["running"], "snapshot has no running sequence"
        return payload, scheduler

    def test_running_blocks_inconsistent_with_progress_refused(self):
        """Held blocks are derived from progress after restore, so a
        count that disagrees is refused even when the pool balances."""
        payload, scheduler = self._running_payload()
        scheduler["running"][0]["blocks"] += 1
        scheduler["free_blocks"] -= 1
        with pytest.raises(StateIntegrityError, match="KV blocks"):
            restore(_fleet(), payload)

    @pytest.mark.parametrize("generated", ["negative", "complete"])
    def test_running_generated_out_of_range_refused(self, generated):
        """A sequence must be mid-decode: 0 <= generated < output."""
        payload, scheduler = self._running_payload()
        entry = scheduler["running"][0]
        table = payload["state"]["run"]["requests_table"]
        output = table["output_tokens"][entry["row"]]
        entry["generated"] = -1 if generated == "negative" else output
        with pytest.raises(StateIntegrityError, match="output tokens"):
            restore(_fleet(), payload)

    def test_running_request_listed_twice_refused(self):
        payload, scheduler = self._running_payload()
        duplicate = dict(scheduler["running"][0])
        scheduler["running"].append(duplicate)
        scheduler["free_blocks"] -= duplicate["blocks"]
        with pytest.raises(StateIntegrityError, match="listed twice"):
            restore(_fleet(), payload)

    def test_consistent_running_payload_still_restores(self):
        payload, _ = self._running_payload()
        fresh = _fleet()
        restore(fresh, payload)
        assert snapshot(fresh) == payload


class TestDiskRoundtrip:
    def test_write_read_snapshot(self, tmp_path):
        payload = snapshot(_fleet())
        path = tmp_path / "fleet.json"
        write_snapshot(path, payload)
        assert read_snapshot(path) == payload

    def test_non_object_snapshot_file_refused(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(StateSchemaError, match="JSON object"):
            read_snapshot(path)
