"""Spans recorded around the benchmark's own calls into bikerelay.

A traced run wraps each call the benchmark makes into a bikerelay
module in a span.  Spans are kept in memory and read out when the run
ends.  Every span belongs to one operation (or to set-up), identified
by an integer; the operation's attributes (size, verdict, ...) are
kept beside it so per-layer medians can be split by them.

The untraced run uses NullTracer, whose call() is a plain call, so
end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import math
from time import perf_counter

from hostclock import sampling_seconds


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def begin(self, **attrs):
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def end(self, start, end):
        pass


class Tracer:
    """Tracing on: one (op, name, start, end) span per wrapped call.

    begin() opens an operation; every call() until the next begin()
    is a child of it.  end() records the operation's own root span,
    named "op", whose interval the runner measured.  A span's end is
    moved back by the time spent in host-speed samples inside it.
    """

    enabled = True

    def __init__(self):
        self.spans: list[tuple[int, str, float, float]] = []
        self.ops: list[dict] = []

    def begin(self, **attrs):
        self.ops.append(attrs)

    def call(self, name, fn, *args, **kwargs):
        sampled = sampling_seconds()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        t1 = perf_counter() - (sampling_seconds() - sampled)
        self.spans.append((len(self.ops) - 1, name, t0, t1))
        return result

    def end(self, start, end):
        self.spans.append((len(self.ops) - 1, "op", start, end))

    def durations(self, name, **where):
        """Durations in seconds of the spans called name whose op matches where."""
        return [
            t1 - t0
            for op, span, t0, t1 in self.spans
            if span == name and all(self.ops[op].get(k) == v for k, v in where.items())
        ]

    def per_op(self, name, **where):
        """{op id: total seconds in spans called name}, for ops matching where."""
        out: dict[int, float] = {}
        for op, span, t0, t1 in self.spans:
            if span == name and all(self.ops[op].get(k) == v for k, v in where.items()):
                out[op] = out.get(op, 0.0) + (t1 - t0)
        return out


def quantile(values, q):
    """Nearest-rank quantile: the smallest value with at least q of the sample at or below it."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values):
    return quantile(values, 0.5)
