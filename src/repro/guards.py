"""One rule for the numbers a public configuration accepts.

Batch sizes, KV pools, prices, MTBFs and retry budgets enter through
public constructors; each is checked there, once, by one of three
functions, and the hot paths behind the constructor trust it:

* :func:`finite` -- a real value (not a ``bool``), finite, within the
  given bounds.
* :func:`count` -- a configuration integer: an ``Integral`` that is not
  a ``bool``, within the given bounds.
* :func:`whole` -- a request-row integer: an integer, or a finite float
  with no fraction (a ``16.0``-token prompt is a 16-token prompt).

The command lines parse their numbers with the ``argparse`` forms of
these checks: :func:`seconds_arg` (``finite(gt=0)``, for ``--slo-ttft``),
:func:`number_arg` and :func:`count_arg`.  A refused value stops at
argparse, which prints one usage error naming the flag and exits 2.

Finiteness comes before any bound because NaN passes every plain
comparison (``nan < 0`` and ``nan >= 0`` are both False), so a guard
written as ``if value < 0: raise`` lets NaN through.  The three checks
return ``None`` or raise ``ValueError`` naming the field and the value;
none converts the value, since a coerced number would change the
fingerprints and snapshots that record it.

This module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

import argparse
import math
from collections.abc import Callable
from numbers import Integral, Real


def _wanted(kind: str, gt: Real | None = None, ge: Real | None = None,
            le: Real | None = None) -> str:
    wanted = [kind]
    if gt is not None:
        wanted.append("positive" if gt == 0 else f"> {gt}")
    if ge is not None:
        wanted.append(f">= {ge}")
    if le is not None:
        wanted.append(f"<= {le}")
    return " and ".join(wanted)


def _fail(name: str, kind: str, value: object, gt: Real | None = None,
          ge: Real | None = None, le: Real | None = None) -> None:
    raise ValueError(
        f"{name} must be {_wanted(kind, gt, ge, le)}, got {value!r}")


def _in_bounds(value: Real, gt: Real | None, ge: Real | None,
               le: Real | None) -> bool:
    return ((gt is None or value > gt) and (ge is None or value >= ge)
            and (le is None or value <= le))


def finite(name: str, value: object, *, gt: Real | None = None,
           ge: Real | None = None, le: Real | None = None) -> None:
    """Raise unless ``value`` is a finite real (not a bool) in bounds."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not math.isfinite(value)
            or not _in_bounds(value, gt, ge, le)):
        _fail(name, "finite", value, gt, ge, le)


def count(name: str, value: object, *, ge: Real | None = None,
          le: Real | None = None) -> None:
    """Raise unless ``value`` is an integer (not a bool) in bounds."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or not _in_bounds(value, None, ge, le)):
        _fail(name, "a finite integer", value, ge=ge, le=le)


def whole(name: str, value: object) -> None:
    """Raise unless ``value`` is an integer or a finite whole float."""
    if not (isinstance(value, Integral)
            or (isinstance(value, Real) and float(value).is_integer())):
        _fail(name, "a finite whole number", value)


def _parse(text: str, convert: Callable[[str], Real],
           check: Callable[[Real], None], wanted: str) -> Real:
    """``convert(text)`` if ``check`` accepts it, else the
    ``argparse.ArgumentTypeError`` argparse prints as a usage error."""
    try:
        value = convert(text)
        check(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not {wanted}") from None
    return value


def seconds_arg(text: str) -> float:
    """An ``argparse`` ``type``: a finite number of seconds > 0.

    A refusal raises ``argparse.ArgumentTypeError``, which argparse
    prints as one usage error naming the flag, exiting 2 before the
    command runs.
    """
    return _parse(text, float, lambda value: finite("seconds", value, gt=0),
                  "a finite positive number of seconds")


def number_arg(*, gt: Real | None = None, ge: Real | None = None,
               le: Real | None = None) -> Callable[[str], float]:
    """An ``argparse`` ``type`` parsing a float that :func:`finite`
    accepts within the given bounds (refused as :func:`seconds_arg`
    refuses)."""
    wanted = _wanted("finite", gt, ge, le)
    return lambda text: _parse(
        text, float, lambda value: finite("value", value, gt=gt, ge=ge,
                                          le=le), wanted)


def count_arg(*, ge: Real | None = None,
              le: Real | None = None) -> Callable[[str], int]:
    """An ``argparse`` ``type`` parsing an integer that :func:`count`
    accepts within the given bounds (refused as :func:`seconds_arg`
    refuses)."""
    wanted = _wanted("an integer", ge=ge, le=le)
    return lambda text: _parse(
        text, int, lambda value: count("value", value, ge=ge, le=le), wanted)
