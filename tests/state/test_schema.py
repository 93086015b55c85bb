"""Unit tests: snapshot schema, version negotiation, error taxonomy."""

import json

import pytest

from repro.state import (
    CURRENT_STATE_VERSION,
    StateError,
    StateIntegrityError,
    StateJournalError,
    StateSchemaError,
    StateValueError,
    StateVersionError,
    negotiate,
    validate_payload,
)
from repro.state.schema import (
    read_json,
    require,
    require_finite,
    write_json_atomic,
)


class TestErrorTaxonomy:
    def test_all_errors_are_state_and_value_errors(self):
        for err in (StateSchemaError, StateVersionError, StateValueError,
                    StateIntegrityError, StateJournalError):
            assert issubclass(err, StateError)
            assert issubclass(err, ValueError)

    def test_errors_are_distinguishable(self):
        with pytest.raises(StateVersionError):
            try:
                negotiate({"state_version": CURRENT_STATE_VERSION + 1})
            except StateSchemaError:  # pragma: no cover - wrong branch
                pytest.fail("version refusal raised the schema error")


class TestValidatePayload:
    def test_accepts_plain_json_data(self):
        validate_payload({"a": [1, 2.5, None, True, "x"], "b": {"c": ()}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_rejects_non_finite_with_path(self, bad):
        with pytest.raises(StateValueError, match=r"\$\.outer\[1\]"):
            validate_payload({"outer": [0.0, bad]})

    def test_rejects_non_json_types(self):
        with pytest.raises(StateSchemaError, match="set"):
            validate_payload({"a": {1, 2}})

    def test_rejects_non_string_keys(self):
        with pytest.raises(StateSchemaError, match="non-string key"):
            validate_payload({1: "x"})


class TestNegotiate:
    def _payload(self, version=CURRENT_STATE_VERSION):
        return {"state_version": version, "kind": "fleet_simulator",
                "state": {}}

    def test_current_version_passes_through(self):
        payload = self._payload()
        assert negotiate(dict(payload)) == payload

    def test_newer_version_refused_with_clear_message(self):
        with pytest.raises(StateVersionError, match="newer than this build"):
            negotiate(self._payload(CURRENT_STATE_VERSION + 3))

    def test_unmigratable_older_version_refused(self):
        with pytest.raises(StateVersionError, match="no migration"):
            negotiate(self._payload(0))
        # v1 payloads predate the single fleet engine, and v2 payloads
        # hold per-replica request columns instead of table rows; neither
        # has a migration: they are refused, not misread.
        assert CURRENT_STATE_VERSION == 3
        for stale in (1, 2):
            with pytest.raises(StateVersionError, match="no migration"):
                negotiate(self._payload(stale))

    def test_missing_or_bad_version_is_schema_error(self):
        with pytest.raises(StateSchemaError):
            negotiate({"kind": "fleet_simulator"})
        with pytest.raises(StateSchemaError):
            negotiate({"state_version": "1"})
        with pytest.raises(StateSchemaError):
            negotiate({"state_version": True})
        with pytest.raises(StateSchemaError):
            negotiate(["not", "a", "dict"])


class TestRequire:
    def test_missing_key_names_path(self):
        with pytest.raises(StateSchemaError, match=r"\$\.spot"):
            require({}, "x", int, "$.spot")

    def test_int_satisfies_float_but_bool_never_numeric(self):
        assert require({"x": 3}, "x", float, "$") == 3.0
        with pytest.raises(StateSchemaError, match="bool"):
            require({"x": True}, "x", int, "$")

    def test_require_finite_bounds(self):
        with pytest.raises(StateValueError, match=">= 0"):
            require_finite({"x": -1.0}, "x", "$", minimum=0.0)
        assert require_finite({"x": None}, "x", "$", optional=True) is None


class TestAtomicJson:
    def test_roundtrip_and_no_tmp_left_behind(self, tmp_path):
        target = tmp_path / "snap.json"
        write_json_atomic(target, {"a": 1})
        assert read_json(target) == {"a": 1}
        assert list(tmp_path.iterdir()) == [target]

    def test_nan_refused_at_write_time(self, tmp_path):
        with pytest.raises(ValueError):
            write_json_atomic(tmp_path / "bad.json", {"a": float("nan")})
        assert not (tmp_path / "bad.json").exists()

    def test_unreadable_json_is_schema_error(self, tmp_path):
        bad = tmp_path / "torn.json"
        bad.write_text('{"a": 1')
        with pytest.raises(StateSchemaError, match="unreadable JSON"):
            read_json(bad)

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        target = tmp_path / "snap.json"
        write_json_atomic(target, {"generation": 1})
        write_json_atomic(target, {"generation": 2})
        assert json.loads(target.read_text()) == {"generation": 2}
