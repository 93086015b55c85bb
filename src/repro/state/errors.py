"""Structured error taxonomy for the checkpoint/restore layer.

Every failure mode of :mod:`repro.state` raises a subclass of
:class:`StateError` so callers (the sweep runner, the CLIs, the audit
checks) can distinguish *what went wrong* without parsing messages:

* :class:`StateSchemaError` — a payload is structurally malformed
  (missing keys, wrong types, not a plain JSON-serializable dict).
* :class:`StateVersionError` — a payload carries a ``state_version``
  this build cannot restore (anything but the current version).
* :class:`StateValueError` — a payload or sweep grid spec contains a
  non-finite or out-of-range value (NaN/inf smuggled through JSON
  round-trips, negative token counts, ...), mirroring the
  ``ServeRequest``/``Workload`` finiteness guards.
* :class:`StateIntegrityError` — a payload is well-formed but does not
  match the object it is being restored into (wrong replica spec,
  wrong tick, mismatched fault schedule, broken KV-cache invariant).
* :class:`StateJournalError` — a sweep run directory's write-ahead
  journal is unreadable beyond the torn-final-line case a SIGKILL can
  legitimately leave behind.

All of them subclass :class:`ValueError` so pre-existing generic
handlers keep working.

This module is dependency-free (stdlib only) so any layer — serving,
fleet, faults — can import it without cycles.
"""

from __future__ import annotations


class StateError(ValueError):
    """Base class for all checkpoint/restore failures."""


class StateSchemaError(StateError):
    """A snapshot payload or sweep spec is structurally malformed."""


class StateVersionError(StateError):
    """A payload's ``state_version`` cannot be restored by this build."""


class StateValueError(StateError):
    """A payload or grid spec carries a non-finite/out-of-range value."""


class StateIntegrityError(StateError):
    """A payload does not match the object it is restored into."""


class StateJournalError(StateError):
    """A sweep write-ahead journal is corrupt beyond a torn tail line."""
