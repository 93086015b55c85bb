"""Snapshot schema: versioning and payload validation.

A snapshot payload is a plain dict of JSON primitives:

.. code-block:: python

    {"state_version": 3, "kind": "fleet_simulator", "state": {...}}

``state_version`` names the schema of the whole payload.  Restoring
negotiates the version first (:func:`negotiate`): this build reads
only :data:`CURRENT_STATE_VERSION` and refuses every other version.
Version 2 dropped the second fleet engine; version 3 made a request a
row of the run's table everywhere (schedulers, retry heap, flights,
shed ledger) and stores the run's outcomes once, as columns.  Older
payloads have no migration and are refused, not misread.

Validation (:func:`validate_payload`) walks the payload and rejects
anything that is not JSON-serializable scalar data plus any non-finite
float — NaN/inf cannot round-trip through strict JSON, so letting one
into a checkpoint would make the WAL unreadable on resume.  The same
walker validates sweep grid specs.

This module depends only on the stdlib and :mod:`repro.state.errors`,
so every simulation layer can use its helpers without import cycles.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .errors import (
    StateSchemaError,
    StateValueError,
    StateVersionError,
)

#: Version written by this build's ``snapshot()`` and the only one it
#: restores.
CURRENT_STATE_VERSION = 3


def negotiate(payload: dict) -> dict:
    """Return a payload at :data:`CURRENT_STATE_VERSION` or refuse it.

    Raises:
        StateSchemaError: If the payload is not a dict or lacks an
            integer ``state_version``.
        StateVersionError: If the version is newer or older than
            :data:`CURRENT_STATE_VERSION`.
    """
    if not isinstance(payload, dict):
        raise StateSchemaError(
            f"snapshot payload must be a dict, got {type(payload).__name__}")
    version = payload.get("state_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise StateSchemaError(
            "snapshot payload lacks an integer 'state_version' "
            f"(got {version!r})")
    if version > CURRENT_STATE_VERSION:
        raise StateVersionError(
            f"snapshot state_version {version} is newer than this build "
            f"supports (max {CURRENT_STATE_VERSION}); upgrade the code or "
            f"regenerate the snapshot")
    if version < CURRENT_STATE_VERSION:
        raise StateVersionError(
            f"snapshot state_version {version} is not restorable: no "
            f"migration to v{CURRENT_STATE_VERSION} exists; regenerate "
            f"the snapshot")
    return payload


def validate_payload(value: object, path: str = "$") -> None:
    """Reject payloads that are not finite, JSON-serializable data.

    Walks dicts/lists/tuples recursively; every leaf must be ``None``,
    ``bool``, ``int``, ``str``, or a *finite* ``float``.

    Raises:
        StateSchemaError: On non-string keys or non-JSON types.
        StateValueError: On NaN/±inf floats, naming the offending path.
    """
    if value is None or isinstance(value, (bool, str)):
        return
    if isinstance(value, int):
        return
    if isinstance(value, float):
        if not math.isfinite(value):
            raise StateValueError(
                f"non-finite value {value!r} at {path}; snapshots must be "
                f"strict-JSON serializable")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise StateSchemaError(
                    f"non-string key {key!r} at {path}; snapshot dicts "
                    f"must be JSON objects")
            validate_payload(item, f"{path}.{key}")
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            validate_payload(item, f"{path}[{index}]")
        return
    raise StateSchemaError(
        f"non-JSON value of type {type(value).__name__} at {path}")


def require(mapping: object, key: str, types: type | tuple[type, ...],
            path: str) -> object:
    """Fetch a required, type-checked field from a state dict.

    ``float`` expectations accept ``int`` (JSON does not distinguish
    ``1`` from ``1.0``); ``bool`` never satisfies a numeric expectation.

    Raises:
        StateSchemaError: On a missing key or wrong type.
    """
    if not isinstance(mapping, dict):
        raise StateSchemaError(
            f"expected a dict at {path}, got {type(mapping).__name__}")
    if key not in mapping:
        raise StateSchemaError(f"missing required key {key!r} at {path}")
    value = mapping[key]
    expected = types if isinstance(types, tuple) else (types,)
    if float in expected and isinstance(value, int) \
            and not isinstance(value, bool):
        return float(value)
    if isinstance(value, bool) and bool not in expected:
        raise StateSchemaError(
            f"{path}.{key} must be {expected}, got bool")
    if not isinstance(value, expected):
        raise StateSchemaError(
            f"{path}.{key} must be {tuple(t.__name__ for t in expected)}, "
            f"got {type(value).__name__}")
    return value


def require_finite(mapping: dict, key: str, path: str, *,
                   minimum: float | None = None,
                   optional: bool = False) -> float | None:
    """Fetch a required finite float field, optionally bounded below.

    Raises:
        StateValueError: On non-finite or below-minimum values.
    """
    if optional and mapping.get(key) is None:
        return None
    value = require(mapping, key, float, path)
    assert isinstance(value, float)
    if not math.isfinite(value):
        raise StateValueError(f"{path}.{key} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise StateValueError(
            f"{path}.{key} must be >= {minimum:g}, got {value!r}")
    return value


# -- atomic JSON file helpers -------------------------------------------------

def write_json_atomic(path: Path, payload: object) -> None:
    """Write JSON durably: temp file + fsync + atomic rename.

    A SIGKILL at any instant leaves either the old file or the new one,
    never a torn mix — the contract the snapshot files and the sweep
    spec rely on.  ``allow_nan=False`` turns any smuggled NaN/inf into
    an error at write time rather than an unreadable file at resume.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_json(path: Path) -> object:
    """Load a JSON file written by :func:`write_json_atomic`.

    Raises:
        StateSchemaError: On unparseable content.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise StateSchemaError(f"unreadable JSON at {path}: {error}") from error
