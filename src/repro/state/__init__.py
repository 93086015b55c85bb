"""Deterministic checkpoint/restore and crash-safe resumable sweeps.

Two subsystems share this package:

* **Snapshots** (:mod:`repro.state.checkpoint`) — every stateful
  simulation component exposes versioned, JSON-serializable
  ``to_state()/from_state()``; :func:`snapshot`/:func:`restore` freeze
  and revive a whole :class:`~repro.fleet.cluster.FleetSimulator`
  mid-run with bit-identical replay (pinned by the ``state`` audit
  family).
* **Resumable sweeps** (:mod:`repro.state.runner`) — a write-ahead-
  journaled grid runner that persists each completed point and
  periodic snapshots to a run directory, survives SIGKILL, resumes
  skipping completed work, and supervises each point with a watchdog
  (timeout, seeded-backoff retry, quarantine).

The error taxonomy (:mod:`repro.state.errors`) and schema helpers
(:mod:`repro.state.schema`) are imported eagerly — they are
dependency-free, so any layer can use them.  Everything that touches
:mod:`repro.fleet`/:mod:`repro.faults` resolves lazily to avoid import
cycles (those packages' components import the error taxonomy).
"""

from .errors import (
    StateError,
    StateIntegrityError,
    StateJournalError,
    StateSchemaError,
    StateValueError,
    StateVersionError,
)
from .schema import (
    CURRENT_STATE_VERSION,
    negotiate,
    validate_payload,
)

#: Lazily resolved: these modules import repro.fleet / repro.faults,
#: whose components import repro.state.errors (cycle otherwise).
_LAZY_EXPORTS = {
    "snapshot": "checkpoint",
    "restore": "checkpoint",
    "write_snapshot": "checkpoint",
    "read_snapshot": "checkpoint",
    "FLEET_SNAPSHOT_KIND": "checkpoint",
    "GridPoint": "runner",
    "SweepSpec": "runner",
    "SweepRunner": "runner",
    "PointContext": "runner",
    "point_runner": "points",
    "resolve_point_runner": "points",
    "chaos_grid": "points",
    "capacity_grid": "points",
    "attest_grid": "points",
    "fold_capacity_rows": "points",
}

__all__ = [
    "CURRENT_STATE_VERSION",
    "StateError",
    "StateIntegrityError",
    "StateJournalError",
    "StateSchemaError",
    "StateValueError",
    "StateVersionError",
    "negotiate",
    "validate_payload",
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        from importlib import import_module
        module = import_module(f".{module_name}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
