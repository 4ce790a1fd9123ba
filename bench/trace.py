"""In-memory spans around the calls the benchmark makes into each layer.

A span is (name, start, end, parent, op): ``name`` starts with the layer
it times (``lang.``, ``ir.``, ``analysis.``, ``codegen.``, ``pipeline.``,
``perf.``, ``runtime.``, ``serve.``; ``bench.`` is the harness itself),
``op`` identifies the operation it belongs to, ``parent`` the span that
caused it.  Spans are kept in memory and written out once, when the run
ends.  A layer's self time is its spans' durations minus the part their
child spans cover.

Untraced runs pass :data:`OFF`, whose ``span`` records nothing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "op", "start", "end", "parent", "tid", "children")

    def __init__(self, name: str, op: str, start: float,
                 parent: Optional["Span"], tid: int) -> None:
        self.name = name
        self.op = op
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        #: seconds covered by direct child spans
        self.children = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children


class Tracer:
    """Records spans; one stack per thread (the serve generator has two)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: str = "") -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span = Span(name, op or (parent.op if parent else ""),
                    time.perf_counter(), parent, threading.get_ident())
        stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.children += span.seconds
            self.spans.append(span)  # list.append is atomic

    def seconds_by_name(self) -> Dict[str, float]:
        """Total duration per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals

    def self_seconds_by_layer(self) -> Dict[str, float]:
        """Self time per layer (the name's prefix before the first dot)."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + span.self_seconds
        return totals

    def chrome_events(self) -> List[dict]:
        """Complete ("X") events in Chrome trace format, microseconds."""
        if not self.spans:
            return []
        origin = min(span.start for span in self.spans)
        tids = {tid: index for index, tid in enumerate(
            sorted({span.tid for span in self.spans}))}
        pid = os.getpid()  # one traced run per process: a row of its own
        return [{"name": "process_name", "ph": "M", "pid": pid,
                 "args": {"name": self.workload}}] + [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": pid,
                "tid": tids[span.tid],
                "args": {
                    "op": span.op,
                    "parent": span.parent.name if span.parent else None,
                    "self_us": span.self_seconds * 1e6,
                },
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms"}, handle)


class _Off:
    """The tracer of an untraced run: ``span`` records nothing."""

    _null = nullcontext()

    def span(self, name: str, op: str = ""):
        return self._null


OFF = _Off()
