"""In-memory spans for the traced benchmark run.

A span is [name, start, end, parent]: perf_counter seconds and the index of
the enclosing span (-1 for a root).  Spans are recorded by wrappers the
benchmark puts around its own calls into sasm; nothing inside the package is
instrumented.  The log is kept in memory and written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    def __init__(self):
        self.records: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        """fn, recording one span per call."""
        records, open_ = self.records, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(records))
            records.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.records))
        self.records.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def roots(self) -> list[int]:
        """For each span, the index of its root span."""
        out: list[int] = []
        for i, rec in enumerate(self.records):
            out.append(i if rec[3] < 0 else out[rec[3]])
        return out

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total ms and self ms (the duration minus
        the part its child spans cover)."""
        child = [0.0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.records):
            row = table.setdefault(name, {"calls": 0, "total_ms": 0.0,
                                          "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child[i]) * 1e3
        return table
