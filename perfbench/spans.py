"""In-memory span recorder for the traced replay.

A span is (study, name, start, end, parent); spans of one study share the
study id.  Spans stay in memory and self times are computed at the end: a
span's duration minus the time its direct children cover.  The replay is
single-threaded, so children never overlap and their durations add.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [study, name, start, end, parent index]
        self._stack: list[int] = []
        self.study = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.study, name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()

    def duration(self, index: int) -> float:
        return self.spans[index][3] - self.spans[index][2]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every recorded span."""
        covered = [0.0] * len(self.spans)
        for i, (_, _, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                covered[parent] += self.duration(i)
        totals: dict[str, float] = defaultdict(float)
        for i, (_, name, _, _, _) in enumerate(self.spans):
            totals[name] += self.duration(i) - covered[i]
        return dict(totals)
