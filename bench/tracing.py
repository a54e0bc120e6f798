"""In-memory spans around the benchmark's calls into each layer.

A span records (trace id, name, parent span, start, end).  Spans stay in a
list while the benchmark runs and are written out once at the end; self
time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # each span is [trace_id, name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.trace_id = 0

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span called `name`."""
        parent = self._open[-1] if self._open else -1
        span = [self.trace_id, name, parent, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[3] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[4] = perf_counter()
            self._open.pop()

    def self_seconds(self, traces: set[int] | None = None) -> dict[str, float]:
        """Total self time per span name, in seconds, over the given trace
        ids or over all spans."""
        out: dict[str, float] = defaultdict(float)
        for tid, name, parent, start, end in self.spans:
            if traces is not None and tid not in traces:
                continue
            out[name] += end - start
            if parent >= 0:
                p = self.spans[parent]
                out[p[1]] -= end - start
        return dict(out)

    def write(self, path: Path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        with path.open("w") as f:
            for idx, (tid, name, parent, start, end) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": idx,
                            "trace": tid,
                            "name": name,
                            "parent": parent,
                            "start": start - t0,
                            "end": end - t0,
                        }
                    )
                    + "\n"
                )
