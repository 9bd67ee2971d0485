"""In-memory spans and call-time wrappers for the traced benchmark run.

A span is (name, start, end, parent).  Spans are opened and closed by
wrappers that replace the module-level names the package looks up at call
time, so the package itself is not modified and the untraced run executes
exactly the code users call.

Self time of a span is its duration minus the durations of its direct
children; on one thread children never overlap, so that is the part of the
interval no child covers.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Tracer:
    """Open/closed spans plus named counters, all kept in memory."""

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    clock: object = time.perf_counter

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        self._stack.pop()

    def add(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; ``name`` may be a function of the
        call's arguments, ``after(result, args, kwargs)`` sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def summary(self) -> dict:
        """Per name: count, busy (outermost spans), self time, durations."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict = {}
        for i in range(n):
            name = self.names[i]
            rec = out.setdefault(
                name, {"count": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
            )
            rec["count"] += 1
            rec["self_s"] += dur[i] - child[i]
            rec["durations"].append(dur[i])
            if not self._has_ancestor(i, name):
                rec["busy_s"] += dur[i]
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def records(self) -> list:
        return [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i]]
            for i in range(len(self.names))
        ]


class ObjectSet:
    """Counts distinct objects by identity while holding a reference to each,
    so an id cannot be reused by a later object while the set is alive."""

    def __init__(self):
        self._held: dict = {}

    def add(self, obj) -> bool:
        """Record obj; True when it was not seen before."""
        if self._held.get(id(obj)) is obj:
            return False
        self._held[id(obj)] = obj
        return True

    def __len__(self) -> int:
        return len(self._held)


def tail_value(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its value.

    With fewer than eleven samples the maximum is returned as the 100th
    percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < 11:
        return 100.0, ordered[-1]
    k = n - 11  # ten samples lie above ordered[k]
    return 100.0 * (k + 1) / n, ordered[k]


def median(values) -> float:
    return float(statistics.median(values))


class Patches:
    """Replace module attributes and put the originals back on exit."""

    def __init__(self):
        self._saved: list = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
        return False
