"""Top-level snapshot/restore API for the fleet simulator.

:func:`snapshot` freezes a :class:`~repro.fleet.cluster.FleetSimulator`
— idle or mid-run — into a versioned, validated, JSON-serializable
payload; :func:`restore` installs such a payload into a *freshly
built* simulator constructed with the same arguments.  Resuming the
run then replays the exact instruction sequence of the uninterrupted
run, so the final :class:`~repro.fleet.report.FleetReport` is
bit-identical (pinned by the ``state.resume_parity`` audit check).

Why restore-into-fresh rather than rebuild-from-payload: a
:class:`~repro.fleet.replica.ReplicaSpec` closes over a full
:class:`~repro.engine.placement.Deployment` (hardware model, price
catalog, framework toggles) that is cheap to reconstruct from code but
hostile to serialize.  The payload therefore carries only *runtime*
state plus per-layer config fingerprints; restore checks every
fingerprint and refuses a simulator whose construction differs from
the one snapshotted (:class:`~repro.state.errors.StateIntegrityError`).

All determinism sources are already pure or pregenerated — arrival
streams are materialized lists, fault schedules are seeded tuples, and
retry jitter is a pure function of ``(seed, request_id, retry)`` — so
no live RNG object ever needs to be captured.
"""

from __future__ import annotations

from pathlib import Path

from .errors import StateSchemaError
from .schema import (
    CURRENT_STATE_VERSION,
    negotiate,
    read_json,
    require,
    validate_payload,
    write_json_atomic,
)

#: Payload discriminator for fleet snapshots.
FLEET_SNAPSHOT_KIND = "fleet_simulator"


def snapshot(sim) -> dict:
    """Freeze a fleet simulator into a versioned, validated payload.

    Args:
        sim: A :class:`~repro.fleet.cluster.FleetSimulator`, idle or
            mid-run (between :meth:`begin_run` and :meth:`finish_run`).

    Returns:
        ``{"state_version": ..., "kind": "fleet_simulator",
        "state": ...}`` — plain dicts/lists/scalars, strict-JSON safe.

    Raises:
        StateValueError: If the captured state somehow carries a
            non-finite value (validated before the payload escapes).
    """
    payload = {
        "state_version": CURRENT_STATE_VERSION,
        "kind": FLEET_SNAPSHOT_KIND,
        "state": sim.to_state(),
    }
    validate_payload(payload)
    return payload


def restore(sim, payload: dict) -> None:
    """Install a :func:`snapshot` payload into a fresh simulator.

    Negotiates the payload's ``state_version`` (only the current one
    restores), validates the payload, and hands the inner state to
    :meth:`FleetSimulator.from_state`.

    Raises:
        StateVersionError: If the version cannot be negotiated.
        StateSchemaError: If the payload is malformed or not a fleet
            snapshot.
        StateIntegrityError: If ``sim`` was not built with the same
            configuration the snapshot was taken under.
    """
    payload = negotiate(payload)
    validate_payload(payload)
    kind = require(payload, "kind", str, "$")
    if kind != FLEET_SNAPSHOT_KIND:
        raise StateSchemaError(
            f"payload is a {kind!r} snapshot, expected "
            f"{FLEET_SNAPSHOT_KIND!r}")
    sim.from_state(require(payload, "state", dict, "$"))


def write_snapshot(path: Path, payload: dict) -> None:
    """Durably write a snapshot payload (atomic temp-file + rename)."""
    validate_payload(payload)
    write_json_atomic(Path(path), payload)


def read_snapshot(path: Path) -> dict:
    """Load a snapshot payload written by :func:`write_snapshot`."""
    payload = read_json(Path(path))
    if not isinstance(payload, dict):
        raise StateSchemaError(
            f"snapshot file {path} does not hold a JSON object")
    return payload
