"""Spans around the library's public calls, recorded from outside `src/`.

One span per wrapped call (name, start, end, parent id, and the arrival
index it served during a replay), kept in memory; when the run ends the
spans of set-up and of the first traced pass are written out as JSONL.
Distance calls are too many to record one by one, so
each is folded into the span that made it: count, time and the number of
distinct unordered point pairs.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager

from dynkcenter import six_approx


class Span:
    __slots__ = ("id", "name", "parent", "arrival", "start", "end", "child_ns",
                 "dist_calls", "dist_ns", "pairs", "peak_bytes")

    def __init__(self, id, name, parent, arrival):
        self.id = id
        self.name = name
        self.parent = parent
        self.arrival = arrival
        self.start = self.end = 0
        self.child_ns = 0  # time covered by child spans
        self.dist_calls = 0
        self.dist_ns = 0
        self.pairs = set()  # replaced by its size when the span ends
        self.peak_bytes = None

    @property
    def self_ns(self):
        return self.end - self.start - self.child_ns - self.dist_ns

    def to_json(self):
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "arrival": self.arrival, "start_ns": self.start, "end_ns": self.end,
            "self_ns": self.self_ns, "distance_calls": self.dist_calls,
            "distance_ns": self.dist_ns, "distance_pairs": self.pairs,
            "peak_bytes": self.peak_bytes,
        }


class Tracer:
    def __init__(self):
        self.spans = []
        self.arrival = None  # set by the replay loop
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent and parent.id, self.arrival)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()
        span.pairs = len(span.pairs)
        if self._stack:
            self._stack[-1].child_ns += span.end - span.start

    def call(self, name, fn, *args, memory=False):
        """Make one call inside a span; with `memory`, also record its
        tracemalloc peak."""
        if memory:
            tracemalloc.start()
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)
            if memory:
                span.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_distance(self, fn):
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(p, q):
            t0 = clock()
            d = fn(p, q)
            dt = clock() - t0
            span = stack[-1]
            span.dist_calls += 1
            span.dist_ns += dt
            span.pairs.add((p.id, q.id) if p.id < q.id else (q.id, p.id))
            return d

        return traced

    @contextmanager
    def instrument(self, clustering):
        """Trace the structure's public methods, the distance calls of its
        metric and `greedy_cover` under the name `six_approx` calls it by."""
        module = type(clustering).__module__.rsplit(".", 1)[-1]
        clustering.update = self.wrap(f"{module}.update", clustering.update)
        clustering.query = self.wrap(f"{module}.query", clustering.query)
        if hasattr(clustering, "witness"):
            clustering.witness = self.wrap(f"{module}.witness", clustering.witness)
        clustering.metric.distance = self.wrap_distance(clustering.metric.distance)
        original = six_approx.greedy_cover
        six_approx.greedy_cover = self.wrap("oracle.greedy_cover", original)
        try:
            yield
        finally:
            six_approx.greedy_cover = original
            for attr in ("update", "query", "witness"):
                clustering.__dict__.pop(attr, None)
            clustering.metric.__dict__.pop("distance", None)

    def write(self, path, count):
        """Write the first `count` spans as JSONL."""
        with open(path, "w") as f:
            for span in self.spans[:count]:
                f.write(json.dumps(span.to_json()) + "\n")
