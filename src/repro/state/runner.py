"""Crash-safe sweep runner: write-ahead journal + watchdog supervision.

A sweep is a grid of :class:`GridPoint` entries, each naming a
registered point runner (:mod:`repro.state.points`) and its JSON
parameters.  :class:`SweepRunner` executes the grid against a *run
directory* with these guarantees:

* **Durability** — every completed point is appended to
  ``results.jsonl`` with flush+fsync *before* the runner moves on
  (write-ahead journaling: the row is on disk or the point is not
  done).  A SIGKILL can at worst tear the final line, which resume
  tolerates; any earlier corruption raises
  :class:`~repro.state.errors.StateJournalError`.
* **Resumability** — reopening the directory skips completed and
  quarantined points and honors group pruning, so a killed sweep
  continues where it stopped and the merged journal is byte-identical
  to an uninterrupted run's.
* **Progress under mid-point kills** — long points periodically write
  simulator snapshots (``snapshots/point_<index>.json``); on retry or
  resume the point continues from its last checkpoint instead of
  restarting from zero (restart-from-zero being the expensive failure
  mode TEE boot/attestation costs make worse).
* **Supervision** — with ``point_timeout_s`` set, each point runs in a
  forked watchdog child; a hung point is terminated, retried with the
  seeded backoff of :class:`~repro.faults.resilience.RetryPolicy`
  (keyed by point index, so delays are deterministic), and after
  ``max_attempts`` failures quarantined (``quarantine.jsonl``) so one
  pathological config degrades the sweep instead of killing it.

Run directory layout::

    run_dir/
      spec.json          # the SweepSpec (atomic write, checked on open)
      results.jsonl      # WAL: {"index", "key", "row"} per completed point
      quarantine.jsonl   # {"index", "key", "error", "attempts"} per give-up
      snapshots/         # point_<index>.json mid-point checkpoints
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import (
    StateIntegrityError,
    StateJournalError,
    StateSchemaError,
    StateValueError,
)
from .schema import (
    read_json,
    require,
    require_finite,
    validate_payload,
    write_json_atomic,
)

#: File names inside a run directory.
SPEC_FILE = "spec.json"
RESULTS_FILE = "results.jsonl"
QUARANTINE_FILE = "quarantine.jsonl"
SNAPSHOT_DIR = "snapshots"


@dataclass(frozen=True)
class GridPoint:
    """One grid point: a named runner plus its parameters.

    Attributes:
        index: Position in the sweep (contiguous from 0; execution and
            journal order).
        key: Human-readable unique label, e.g. ``"tdx/mtbf_6"``.
        runner: Registered point-runner name
            (:func:`repro.state.points.point_runner`).
        params: JSON-serializable parameters handed to the runner.
        group: Prune group — when the sweep's ``prune_field`` is set
            and an earlier completed point of the same group set that
            row field truthy, later points of the group are skipped
            (how capacity curves early-stop per kind).
    """

    index: int
    key: str
    runner: str
    params: dict = field(default_factory=dict)
    group: str = ""

    def to_state(self) -> dict:
        return {"index": self.index, "key": self.key, "runner": self.runner,
                "params": self.params, "group": self.group}

    @classmethod
    def from_state(cls, state: dict) -> "GridPoint":
        return cls(
            index=require(state, "index", int, "$.point"),
            key=require(state, "key", str, "$.point"),
            runner=require(state, "runner", str, "$.point"),
            params=require(state, "params", dict, "$.point"),
            group=require(state, "group", str, "$.point"),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: the grid plus runner/supervision configuration.

    Attributes:
        points: The grid, in execution order.
        prune_field: Row field that prunes the rest of a group once
            truthy (``None`` disables pruning).
        checkpoint_every_s: Simulated-seconds cadence of mid-point
            snapshots (0 disables them).
        point_timeout_s: Wall-clock budget per point attempt; ``None``
            runs points in-process with no watchdog.
        max_attempts: Attempts per point before quarantine.
        retry_seed: Seed of the deterministic retry backoff.
    """

    points: tuple[GridPoint, ...]
    prune_field: str | None = None
    checkpoint_every_s: float = 0.0
    point_timeout_s: float | None = None
    max_attempts: int = 3
    retry_seed: int = 0

    def __post_init__(self) -> None:
        if not self.points:
            raise StateSchemaError("a sweep needs at least one grid point")
        for slot, point in enumerate(self.points):
            if point.index != slot:
                raise StateSchemaError(
                    f"grid indices must be contiguous from 0: slot {slot} "
                    f"holds index {point.index}")
        keys = [point.key for point in self.points]
        if len(set(keys)) != len(keys):
            raise StateSchemaError("grid point keys must be unique")
        if self.checkpoint_every_s < 0:
            raise StateValueError("checkpoint_every_s must be >= 0")
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise StateValueError("point_timeout_s must be positive")
        if self.max_attempts < 1:
            raise StateValueError("max_attempts must be >= 1")
        # Grid params must survive a JSON round-trip exactly.
        validate_payload([point.params for point in self.points], "$.points")

    def to_state(self) -> dict:
        return {
            "points": [point.to_state() for point in self.points],
            "prune_field": self.prune_field,
            "checkpoint_every_s": self.checkpoint_every_s,
            "point_timeout_s": self.point_timeout_s,
            "max_attempts": self.max_attempts,
            "retry_seed": self.retry_seed,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SweepSpec":
        prune = state.get("prune_field")
        if prune is not None and not isinstance(prune, str):
            raise StateSchemaError("$.spec.prune_field must be str or null")
        return cls(
            points=tuple(GridPoint.from_state(payload) for payload
                         in require(state, "points", list, "$.spec")),
            prune_field=prune,
            checkpoint_every_s=require_finite(
                state, "checkpoint_every_s", "$.spec", minimum=0.0),
            point_timeout_s=require_finite(
                state, "point_timeout_s", "$.spec", optional=True),
            max_attempts=require(state, "max_attempts", int, "$.spec"),
            retry_seed=require(state, "retry_seed", int, "$.spec"),
        )


class PointContext:
    """Checkpoint facilities handed to a point runner.

    A runner calls :meth:`resume_payload` once to pick up a mid-point
    snapshot left by a killed/timed-out attempt, and
    :meth:`checkpoint` at its own cadence (gated by
    :attr:`checkpoint_every_s`) to leave one.  An inline run's context
    has no snapshot path and a zero cadence: nothing to resume, nothing
    to leave.
    """

    def __init__(self, snapshot_path: Path | None,
                 checkpoint_every_s: float) -> None:
        self.snapshot_path = (None if snapshot_path is None
                              else Path(snapshot_path))
        self.checkpoint_every_s = checkpoint_every_s

    def resume_payload(self) -> dict | None:
        """The point's last checkpoint, if one survives on disk."""
        if self.snapshot_path is None or not self.snapshot_path.exists():
            return None
        from .checkpoint import read_snapshot
        return read_snapshot(self.snapshot_path)

    def checkpoint(self, payload: dict) -> None:
        """Durably write the point's current snapshot (atomic)."""
        from .checkpoint import write_snapshot
        self.snapshot_path.parent.mkdir(parents=True, exist_ok=True)
        write_snapshot(self.snapshot_path, payload)

    def clear(self) -> None:
        """Drop the point's snapshot (called after the WAL row lands)."""
        try:
            self.snapshot_path.unlink()
        except FileNotFoundError:
            pass


def _append_jsonl(path: Path, record: dict) -> None:
    """WAL append: one JSON line, flushed and fsynced before returning."""
    line = json.dumps(record, sort_keys=True, allow_nan=False)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_journal(path: Path) -> list[dict]:
    """Parse a WAL, tolerating exactly one torn *final* line.

    A SIGKILL mid-append can leave a partial last line; that is
    recoverable and silently dropped.  An unparsable line anywhere
    else means real corruption and raises
    :class:`~repro.state.errors.StateJournalError`.
    """
    if not Path(path).exists():
        return []
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records: list[dict] = []
    for number, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if number == len(lines) - 1:
                break  # torn tail from a mid-append kill: recoverable
            raise StateJournalError(
                f"journal {path} corrupt at line {number + 1} "
                f"(not the torn tail): {error}") from error
        if not isinstance(record, dict):
            raise StateJournalError(
                f"journal {path} line {number + 1} is not a JSON object")
        records.append(record)
    return records


class SweepRunner:
    """Execute a :class:`SweepSpec`, journaled or inline.

    Build with :meth:`create` (new or matching directory) or
    :meth:`open` (existing directory).  :meth:`run` then executes
    whatever the journal says is still missing.

    ``create(None, spec)`` builds an *inline* runner: the same point
    order and group pruning, but nothing is written to disk.  Its
    journal is empty, a failing point raises instead of being retried
    and quarantined, the spec's checkpoint and watchdog settings do not
    apply, and :meth:`run` returns the point runners' rows as they are.
    """

    def __init__(self, run_dir: Path | None, spec: SweepSpec) -> None:
        self.run_dir = None if run_dir is None else Path(run_dir)
        self.spec = spec

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, run_dir: Path | None, spec: SweepSpec) -> "SweepRunner":
        """Initialize (or idempotently reopen) a run directory.

        ``run_dir=None`` returns an inline runner that writes nothing.

        Raises:
            StateIntegrityError: If the directory already holds a
                *different* sweep spec — resuming someone else's run
                would interleave incompatible rows.
        """
        if run_dir is None:
            return cls(None, spec)
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / SNAPSHOT_DIR).mkdir(exist_ok=True)
        spec_path = run_dir / SPEC_FILE
        payload = spec.to_state()
        if spec_path.exists():
            existing = read_json(spec_path)
            if existing != json.loads(json.dumps(payload)):
                raise StateIntegrityError(
                    f"{run_dir} already holds a different sweep spec; "
                    f"pick a fresh run directory")
        else:
            write_json_atomic(spec_path, payload)
        return cls(run_dir, spec)

    @classmethod
    def open(cls, run_dir: Path) -> "SweepRunner":
        """Reopen an existing run directory from its persisted spec."""
        run_dir = Path(run_dir)
        spec_path = run_dir / SPEC_FILE
        if not spec_path.exists():
            raise StateSchemaError(
                f"{run_dir} is not a sweep run directory (no {SPEC_FILE})")
        payload = read_json(spec_path)
        if not isinstance(payload, dict):
            raise StateSchemaError(f"{spec_path} does not hold a JSON object")
        return cls(run_dir, SweepSpec.from_state(payload))

    # -- journal views --------------------------------------------------------

    @property
    def results_path(self) -> Path:
        return self.run_dir / RESULTS_FILE

    @property
    def quarantine_path(self) -> Path:
        return self.run_dir / QUARANTINE_FILE

    def _journal(self, name: str) -> list[dict]:
        if self.run_dir is None:
            return []
        return read_journal(self.run_dir / name)

    def completed(self) -> dict[int, dict]:
        """Completed rows by point index, from the WAL."""
        rows: dict[int, dict] = {}
        for record in self._journal(RESULTS_FILE):
            index = require(record, "index", int, "$.journal")
            if index in rows:
                raise StateJournalError(
                    f"journal holds duplicate rows for point {index}")
            if not 0 <= index < len(self.spec.points):
                raise StateJournalError(
                    f"journal row for unknown point {index}")
            rows[index] = require(record, "row", dict, "$.journal")
        return rows

    def quarantined(self) -> dict[int, dict]:
        """Quarantined points by index (error + attempt count)."""
        entries: dict[int, dict] = {}
        for record in self._journal(QUARANTINE_FILE):
            entries[require(record, "index", int, "$.quarantine")] = record
        return entries

    def pending(self) -> list[GridPoint]:
        """Points still to run, in order, honoring pruning/quarantine."""
        done = self.completed()
        bad = self.quarantined()
        pruned_groups = self._pruned_groups(done)
        return [point for point in self.spec.points
                if point.index not in done and point.index not in bad
                and (point.group not in pruned_groups)]

    def _pruned_groups(self, done: dict[int, dict]) -> dict[str, int]:
        """Groups already satisfied: group -> index of the pruning row.

        A point is pruned only by an *earlier* point of its group, so
        execution order and resume order agree.
        """
        field_name = self.spec.prune_field
        if field_name is None:
            return {}
        pruned: dict[str, int] = {}
        for index, row in sorted(done.items()):
            point = self.spec.points[index]
            if not point.group:
                continue
            if point.group in pruned:
                continue
            if row.get(field_name):
                pruned[point.group] = index
        return pruned

    def _context(self, point: GridPoint) -> PointContext:
        if self.run_dir is None:
            return PointContext(None, 0.0)
        return PointContext(
            self.run_dir / SNAPSHOT_DIR / f"point_{point.index}.json",
            self.spec.checkpoint_every_s)

    # -- execution ------------------------------------------------------------

    def _run_point_inline(self, point: GridPoint) -> dict:
        from .points import resolve_point_runner
        runner = resolve_point_runner(point.runner)
        row = runner(dict(point.params), self._context(point))
        if not isinstance(row, dict):
            raise StateSchemaError(
                f"point runner {point.runner!r} returned "
                f"{type(row).__name__}, expected a dict row")
        validate_payload(row, f"$.row[{point.key}]")
        return row

    def _run_point_watched(self, point: GridPoint, timeout_s: float) -> dict:
        """Run one point in a forked child under a wall-clock watchdog.

        The child writes its row to a scratch file via atomic rename;
        the parent joins with a timeout and terminates a hung child.
        Fork keeps the child's view of the spec identical to the
        parent's without re-importing anything.
        """
        import multiprocessing

        scratch = self.run_dir / SNAPSHOT_DIR / f".row_{point.index}.json"
        try:
            scratch.unlink()
        except FileNotFoundError:
            pass

        def target() -> None:
            row = self._run_point_inline(point)
            write_json_atomic(scratch, row)

        context = multiprocessing.get_context("fork")
        child = context.Process(target=target, daemon=True)
        child.start()
        child.join(timeout_s)
        if child.is_alive():
            child.terminate()
            child.join()
            raise TimeoutError(
                f"point {point.key} exceeded its {timeout_s:g}s budget")
        if child.exitcode != 0:
            raise RuntimeError(
                f"point {point.key} crashed (exit code {child.exitcode})")
        if not scratch.exists():
            raise RuntimeError(
                f"point {point.key} exited cleanly but wrote no row")
        row = read_json(scratch)
        scratch.unlink()
        if not isinstance(row, dict):
            raise StateSchemaError(
                f"point {point.key} wrote a non-object row")
        return row

    def _run_point_journaled(self, point: GridPoint,
                             sleep: Callable[[float], None]) -> dict | None:
        """Run one point under supervision and journal its outcome.

        Returns the row once it is durably in the WAL, or ``None`` once
        the point is quarantined.
        """
        from ..faults.resilience import RetryPolicy

        retry = RetryPolicy(timeout_s=max(self.spec.point_timeout_s or 1.0,
                                          1e-9),
                            max_attempts=self.spec.max_attempts,
                            seed=self.spec.retry_seed)
        row: dict | None = None
        failure: Exception | None = None
        for attempt in range(1, self.spec.max_attempts + 1):
            try:
                if self.spec.point_timeout_s is None:
                    row = self._run_point_inline(point)
                else:
                    row = self._run_point_watched(
                        point, self.spec.point_timeout_s)
                break
            except (StateJournalError, KeyboardInterrupt):
                raise
            except Exception as error:  # noqa: BLE001 - supervised
                failure = error
                if attempt < self.spec.max_attempts:
                    sleep(retry.backoff_s(point.index, attempt))
        if row is None:
            _append_jsonl(self.quarantine_path, {
                "index": point.index, "key": point.key,
                "error": f"{type(failure).__name__}: {failure}",
                "attempts": self.spec.max_attempts,
            })
            return None
        # WAL first, then cleanup: the row is durable before the
        # point's checkpoint is dropped, so a kill between the two
        # re-reads a completed point and simply skips it.
        _append_jsonl(self.results_path, {
            "index": point.index, "key": point.key, "row": row,
        })
        self._context(point).clear()
        return row

    def run(self, max_points: int | None = None,
            on_row: Callable[[GridPoint, dict], None] | None = None,
            sleep: Callable[[float], None] = time.sleep) -> dict[int, dict]:
        """Execute pending points; return all completed rows by index.

        Args:
            max_points: Stop after completing this many *new* points
                (``None`` = run the whole grid).  Used by crash tests
                and smoke variants.
            on_row: Streaming callback fired after each new row lands
                (durably journaled, unless the runner is inline).
            sleep: Injectable backoff sleep (tests pass a recorder).
        """
        done = self.completed()
        bad = self.quarantined()
        pruned = self._pruned_groups(done)
        fresh = 0
        for point in self.spec.points:
            if max_points is not None and fresh >= max_points:
                break
            if point.index in done or point.index in bad:
                continue
            if point.group and point.group in pruned:
                continue
            if self.run_dir is None:
                row = self._run_point_inline(point)
            else:
                row = self._run_point_journaled(point, sleep)
                if row is None:
                    continue
            done[point.index] = row
            fresh += 1
            if self.spec.prune_field and point.group \
                    and point.group not in pruned \
                    and row.get(self.spec.prune_field):
                pruned[point.group] = point.index
            if on_row is not None:
                on_row(point, row)
        return done
