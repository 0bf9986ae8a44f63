"""In-memory spans around functions, patched in where their callers look them up.

A span records its name, start, end, the span it ran under, and which
kernelize call of the pass it belongs to. Nothing is written while a pass
runs; the spans stay in memory until the benchmark summarizes them.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

# Called after a probed function returns, with the counters, the call's
# positional arguments and its result.
CountFn = Callable[[Counter, tuple, Any], None]


@dataclass(frozen=True)
class Probe:
    owner: Any          # module or class whose attribute the caller looks up
    attr: str
    name: str           # span name, "<layer>.<what>"
    count: Optional[CountFn] = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int         # index of the enclosing span, -1 for a root
    call: int           # index of the kernelize call within the pass

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.call = 0
        self._stack: list[int] = []
        self._clock = clock

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        sp = Span(name, self._clock(), 0.0, parent, self.call)
        self.spans.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        self._stack.pop()
        sp.end = self._clock()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, fn: Callable, name: str, count: Optional[CountFn]) -> Callable:
        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if count is not None:
                count(self.counts, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, probes: Sequence[Probe]) -> Iterator["Tracer"]:
        """Install a wrapper at every probe for the duration of the block."""
        saved = []
        try:
            for p in probes:
                orig = getattr(p.owner, p.attr)
                saved.append((p.owner, p.attr, orig))
                setattr(p.owner, p.attr, self.wrap(orig, p.name, p.count))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Children run inside their parent, so the self times of a tree add up
        to its root's duration.
        """
        own = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                own[sp.parent] -= sp.duration
        return own
