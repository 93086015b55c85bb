"""Span tracer that measures ``repro`` from outside the program.

It replaces public layer boundaries (methods of the classes in use and
module-level functions) with timing wrappers, aggregates every call per
``(span, parent span)`` with self time, and puts the originals back on
:meth:`Tracer.uninstall`.  Nothing inside ``src/`` knows it is traced.

A boundary that no longer exists (a later refactor deleted or renamed
it) is recorded in :attr:`Tracer.absent` instead of raising, so the
benchmark keeps running while the code it measures is being removed.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    """Aggregated spans and counters for one traced process.

    Attributes:
        stats: ``(span, parent) -> [calls, total_s, child_s]``; the root
            parent is ``None``.  Self time is ``total_s - child_s``.
        counters: Free-form counts recorded by boundary hooks.
        absent: ``owner.attr`` names that could not be wrapped.
    """

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str | None], list] = {}
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span name, child seconds]
        self._patches: list[tuple[object, str, object, bool]] = []
        self._wrapped: set[tuple[int, str]] = set()

    def reset(self) -> None:
        """Forget recorded spans and counters; keep the wrappers."""
        self.stats.clear()
        self.counters.clear()

    def wrap(self, owner: object, attr: str, span: str,
             before=None, after=None) -> None:
        """Time every call of ``owner.attr`` as ``span``.

        ``before(args)`` runs ahead of the call and ``after(args,
        result)`` after it returns; both run outside the span's own
        timing.  Wrapping the same ``(owner, attr)`` twice is a no-op.
        """
        if (id(owner), attr) in self._wrapped:
            return
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        owned = attr in vars(owner)
        raw = vars(owner)[attr] if owned else None
        self._patches.append((owner, attr, raw, owned))
        self._wrapped.add((id(owner), attr))
        setattr(owner, attr, self._timed(original, span, before, after))

    def _timed(self, original, span: str, before, after):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = stats.get((span, parent))
                if entry is None:
                    entry = stats[(span, parent)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[1]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, raw, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()
        self._wrapped.clear()

    # -- aggregate views -------------------------------------------------------

    def calls(self, span: str) -> int:
        return sum(entry[0] for (name, _), entry in self.stats.items()
                   if name == span)

    def calls_under(self, span: str, parent: str) -> int:
        """Calls of ``span`` whose innermost traced caller is ``parent``."""
        return self.stats.get((span, parent), (0,))[0]

    def total_s(self, span: str) -> float:
        return sum(entry[1] for (name, _), entry in self.stats.items()
                   if name == span)

    def self_s(self, span: str) -> float:
        return sum(entry[1] - entry[2]
                   for (name, _), entry in self.stats.items()
                   if name == span)

    def root_s(self) -> float:
        """Wall time covered by spans that have no traced parent."""
        return sum(entry[1] for (_, parent), entry in self.stats.items()
                   if parent is None)

    def table(self) -> list[dict]:
        """Every ``(span, parent)`` row, for the ``--json`` dump."""
        return [{"span": name, "parent": parent, "calls": entry[0],
                 "total_s": entry[1], "self_s": entry[1] - entry[2]}
                for (name, parent), entry in sorted(
                    self.stats.items(), key=lambda item: -item[1][1])]
