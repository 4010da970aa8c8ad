"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that caused it and the request id it belongs to.  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of a run.  A
layer's *self time* is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: int | None


class Tracer:
    """Collects spans; ``span()`` nests through a per-thread stack."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, rid=None):
        """Time the ``with`` body as a child of the innermost open span."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self._append(Span(sid, name, start, end, parent, rid))

    def record(self, name, start, end, rid=None, parent=None):
        """Add a span timed elsewhere (e.g. one that ended on another thread)."""
        sid = next(self._ids)
        self._append(Span(sid, name, start, end, parent, rid))
        return sid

    def _append(self, span):
        with self._lock:
            self.spans.append(span)

    def self_times(self):
        """``{sid: self seconds}``: duration minus the union of child intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(span.sid, ())):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.sid] = (span.end - span.start) - covered
        return result

    def layer_totals(self):
        """``{name: (calls, total self seconds)}`` over every recorded span."""
        self_times = self.self_times()
        totals = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            entry = totals[span.name]
            entry[0] += 1
            entry[1] += self_times[span.sid]
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def mean_self_ms(self, name):
        """Mean self time per call of the spans called ``name`` (0 when none)."""
        calls, seconds = self.layer_totals().get(name, (0, 0.0))
        return seconds / calls * 1e3 if calls else 0.0

    def request_children_ms(self, root_name):
        """Mean summed self time of the children of each ``root_name`` span."""
        roots = {span.sid for span in self.spans if span.name == root_name}
        if not roots:
            return 0.0
        self_times = self.self_times()
        covered = sum(self_times[span.sid] for span in self.spans if span.parent in roots)
        return covered / len(roots) * 1e3

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off: records nothing."""

    @contextmanager
    def span(self, name, rid=None):
        yield None
