"""In-memory span recording for the traced benchmark run.

A span is a name, a start, an end, a parent span and a group id; spans of one
control iteration or one training step share a group id. Spans come from
wrapping the module attributes through which the program looks its callees
up (``gridsac.environment.solve_newton_raphson``, ``SacAgent.update``, ...),
so the program itself is not edited. Spans are kept in parallel lists while
the run lasts and written out once at the end.
"""

from __future__ import annotations

import functools
import gzip
import time
from pathlib import Path

perf_counter = time.perf_counter


class Tracer:
    """Span store for one run.

    ``extra[i]`` holds an optional annotation computed after span ``i``
    closed (bytes written, solver outcome, ...), so computing it is never
    part of the span's own duration.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.groups: list[int] = []
        self.extra: list[object] = []
        self.group = 0
        self.pending = True
        self._stack: list[int] = []

    def mark(self) -> None:
        """End the current group: the next opening span starts a new one."""
        self.pending = True

    def wrap(self, name: str, fn, annotate=None, opens=False, closes=False):
        """``fn`` recording one span per call; ``annotate(args, kwargs,
        result)`` runs after the span closed and fills ``extra``. A span that
        ``opens`` starts a new group if the last one was marked ended; one
        that ``closes`` marks its group ended."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, groups, extra, stack = self.parents, self.groups, self.extra, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens and self.pending:
                self.group += 1
                self.pending = False
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            groups.append(self.group)
            extra.append(None)
            stack.append(idx)
            starts.append(0.0)
            ends.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                if closes:
                    self.pending = True
            if annotate is not None:
                extra[idx] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self, patches: "Patches", owner, attr: str, name: str,
                annotate=None, opens=False, closes=False) -> None:
        """Trace ``owner.attr`` as span ``name`` until ``patches`` is restored."""
        patches.replace(owner, attr,
                        lambda fn: self.wrap(name, fn, annotate, opens, closes))

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: index, name, start_s, end_s, parent, group."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent,group\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends,
                                        self.parents, self.groups)):
                fh.write(f"{i},{row[0]},{row[1]!r},{row[2]!r},{row[3]},{row[4]}\n")


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``. Class attributes are read
        from ``__dict__`` so a wrapped method still binds to instances."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_index(parents: list[int]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in parents]
    for i, p in enumerate(parents):
        if p >= 0:
            kids[p].append(i)
    return kids


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    kids = children_index(parents)
    return [ends[i] - starts[i]
            - union_length((max(starts[c], starts[i]), min(ends[c], ends[i]))
                           for c in kids[i] if ends[c] > starts[c])
            for i in range(len(parents))]


def covered_fraction(starts, ends, windows) -> float:
    """Share of the time in ``windows`` (disjoint ``(start, end)`` pairs)
    that the spans cover."""
    covered = total = 0.0
    for lo, hi in windows:
        total += hi - lo
        covered += union_length((max(s, lo), min(e, hi))
                                for s, e in zip(starts, ends) if e > lo and s < hi)
    return covered / total if total > 0 else 0.0
