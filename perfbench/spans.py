"""In-memory spans around the benchmark's calls into gwpva's layers.

A span records its name, start, end, parent span and operation id. Spans
are kept in a list and written out once, when the benchmark ends. A layer's
self time is the total duration of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``op(name)`` opens the root span of one operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_op = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self.spans[self._stack[0]].op if self._stack else self._next_op
        self.spans.append(Span(name, perf_counter(), 0.0, parent, op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = perf_counter()

    def op(self, name: str):
        """Root span of one operation; each operation gets a fresh id."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._next_op += 1
        return self.span(f"op.{name}")

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first:]; op roots pool as 'cli'."""
        child = defaultdict(float)
        for s in self.spans[first:]:
            if s.parent is not None:
                child[s.parent] += s.duration
        out = defaultdict(float)
        for i, s in enumerate(self.spans[first:], start=first):
            name = "cli" if s.name.startswith("op.") else s.name
            out[name] += s.duration - child[i]
        return dict(out)

    def op_total(self, first: int = 0) -> float:
        """Summed duration of the operation root spans over spans[first:]."""
        return sum(s.duration for s in self.spans[first:] if s.parent is None)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


class NullTracer:
    """Tracing off: every span is a no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def op(self, name: str):
        return self._null
