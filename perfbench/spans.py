"""In-memory spans and counters for the traced benchmark run.

A span is recorded around each call the benchmark makes into a ``nusample``
module; its name is ``<module>.<stage>``.  Spans of one op share the op id and
have the op span as parent.  Nothing is written while ops run: the caller
saves :meth:`Tracer.dump` once at the end.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    """Span and counter recorder; every method is a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []      # [name, start, end, parent, op_id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op_id: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def layer_self_times(self, root: str) -> tuple[dict, list]:
        """Self time per span name over the spans inside ops, and per ``root``
        span (one per op) the pair (wall time, summed wall time of its child
        spans)."""
        selfs = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        child_sum: dict[int, float] = defaultdict(float)
        for i, (name, start, end, parent, op_id) in enumerate(self.spans):
            if op_id is not None:
                by_name[name] += selfs[i]
            if parent is not None:
                child_sum[parent] += end - start
        roots = [(end - start, child_sum[i])
                 for i, (name, start, end, _, _) in enumerate(self.spans) if name == root]
        return dict(by_name), roots

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}
