"""Named-check registry for the invariant audit subsystem.

Every audit check is a plain function registered under a dotted name
with the :func:`check` decorator, carrying a *family* (how it validates:
``differential``, ``metamorphic`` or ``golden``), a *severity* and a set
of *layer* tags (which subsystems it exercises).  The registry is the
single source of truth consumed by the runner (:mod:`.runner`), the CLI
(``scripts/audit.py``) and the pytest adapter
(``tests/validate/test_audit_checks.py``) — a check registered here is
automatically an audit item *and* a tier-1 test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: The validation strategies the audit layer ships.  ``chaos`` checks
#: prove fault-injection invariants: conservation of requests, billing
#: bounds, deterministic replay, and zero-fault bit-identity.  ``state``
#: checks prove checkpoint/restore parity: mid-run snapshot -> restore
#: -> completion is bit-identical to never having stopped, and the
#: write-ahead sweep journal resumes byte-identically.  ``tenancy``
#: checks prove the multi-tenant serving plane: exact billing
#: partition, per-tenant request conservation, weighted-fairness
#: ordering, shed-priority ordering, and WFQ-armed snapshot resume.
#: ``attest`` checks prove the phased confidential boot lifecycle:
#: phase conservation, legacy-constant parity, request conservation,
#: and mid-boot snapshot-resume parity.
FAMILIES = ("differential", "metamorphic", "golden", "chaos", "state",
            "tenancy", "attest")

#: ``blocker`` checks gate every run; ``warn`` checks gate only
#: ``--strict`` runs (statistical or known-loose invariants).
SEVERITIES = ("blocker", "warn")


class CheckFailure(AssertionError):
    """An audit check failed.

    Args:
        message: Human-readable account of the violated invariant.
        deltas: Optional measured quantities (name -> value) recorded in
            the :class:`~repro.validate.runner.CheckResult`.
    """

    def __init__(self, message: str,
                 deltas: dict[str, float] | None = None) -> None:
        super().__init__(message)
        self.deltas = dict(deltas or {})


class CheckSkip(Exception):
    """Raised by a check that cannot run in this environment/config."""


@dataclass(frozen=True)
class CheckSpec:
    """One registered audit check.

    Attributes:
        name: Dotted id, conventionally ``<layer>.<what>``.
        family: One of :data:`FAMILIES`.
        layers: Subsystem tags (``llm``, ``engine``, ``memsim``, ...).
        severity: One of :data:`SEVERITIES`.
        description: First line of the check's docstring.
        func: The check body; receives an ``AuditContext``, returns an
            optional detail string, raises :class:`CheckFailure` /
            :class:`CheckSkip` / any exception on failure.
    """

    name: str
    family: str
    layers: tuple[str, ...]
    severity: str
    description: str
    func: Callable = field(compare=False)


_CHECKS: dict[str, CheckSpec] = {}


def check(name: str, *, family: str, layers: tuple[str, ...] = (),
          severity: str = "blocker") -> Callable:
    """Register a function as a named audit check.

    Raises:
        ValueError: On duplicate names or unknown family/severity.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if severity not in SEVERITIES:
        raise ValueError(
            f"severity must be one of {SEVERITIES}, got {severity!r}")
    if not name or "." not in name:
        raise ValueError(f"check name must be dotted, got {name!r}")

    def register(func: Callable) -> Callable:
        if name in _CHECKS:
            raise ValueError(f"duplicate check name {name!r}")
        description = (func.__doc__ or name).strip().splitlines()[0]
        _CHECKS[name] = CheckSpec(name=name, family=family,
                                  layers=tuple(layers), severity=severity,
                                  description=description, func=func)
        return func

    return register


def all_checks() -> dict[str, CheckSpec]:
    """Every registered check, by name (a copy; mutation-safe)."""
    return dict(_CHECKS)


def checks_matching(families: tuple[str, ...] | None = None,
                    layers: tuple[str, ...] | None = None,
                    names: tuple[str, ...] | None = None) -> list[CheckSpec]:
    """Registered checks filtered by family, layer tag and name substring.

    All filters are conjunctive; ``names`` entries match as substrings so
    ``--check parity`` selects every parity check.
    """
    selected = []
    for spec in _CHECKS.values():
        if families and spec.family not in families:
            continue
        if layers and not set(layers) & set(spec.layers):
            continue
        if names and not any(fragment in spec.name for fragment in names):
            continue
        selected.append(spec)
    return sorted(selected, key=lambda spec: (spec.family, spec.name))


def unregister(name: str) -> None:
    """Remove a check (test helper; unknown names are ignored)."""
    _CHECKS.pop(name, None)
