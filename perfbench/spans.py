"""In-memory span recorder shared by the command wrapper and the layer probe.

A span is one timed call: its name, start, end, the index of the span that
was open when it started (its parent), and optional counts.  Times are
`time.perf_counter()` readings; on Linux that is CLOCK_MONOTONIC, one clock
for every process on the machine, so spans written by different
interpreters line up with run.py's own timestamps.  Spans stay in memory
and are written out once, when the process ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace `module.attr` by a wrapper that records one span per call.

        `counts(args, kwargs, result)` may return a dict of counts that is
        stored on the span.
        """
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            with self.span(name) as record:
                result = inner(*args, **kwargs)
                if counts is not None:
                    record["counts"].update(counts(args, kwargs, result))
            return result

        setattr(module, attr, timed)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
