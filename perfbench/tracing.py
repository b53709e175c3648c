"""In-memory spans recorded around the benchmark's calls into sgforge.

A span is ``[name, start_ns, end_ns, parent, pass_id, attrs]``; ``parent``
is the index of the enclosing span or -1.  The layer of a span is the part
of its name before the first dot: ``tree``, ``conjectures``, ``kunz``,
``core`` or ``cli`` for calls into the package, ``bench`` for the
benchmark's own passes, phases and per-semigroup groupings.

Phases are always recorded: they are the timers the end-to-end metrics are
read from.  Per-call spans are recorded only when tracing is on; with it
off, :meth:`Recorder.call` is a plain call.  Spans inside the package are
not recorded, so a call's span also covers whatever the called function
does in other layers.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

NAME, START, END, PARENT, PASS, ATTRS = range(6)


class Recorder:
    def __init__(self, workload: str, traced: bool):
        self.workload = workload
        self.traced = traced
        self.spans: list[list] = []
        self.pass_id = None
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.pass_id, None])
        self._open.append(sid)
        return sid

    def _end(self, sid: int) -> None:
        self.spans[sid][END] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def phase(self, name: str):
        """Timed region, recorded traced or not; yields its span index."""
        sid = self._begin(name)
        try:
            yield sid
        finally:
            self._end(sid)

    def span(self, name: str):
        """Grouping recorded only when tracing (per-semigroup inspection)."""
        return self.phase(name) if self.traced else nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else -1
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, perf_counter_ns(), parent,
                               self.pass_id, None])

    def annotate(self, sid: int, **counts) -> None:
        """Attach counts (nodes, points, semigroups) to a finished span."""
        span = self.spans[sid]
        span[ATTRS] = {**(span[ATTRS] or {}), **counts}

    def seconds(self, sid: int) -> float:
        span = self.spans[sid]
        return (span[END] - span[START]) / 1e9

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for sid, (name, start, end, parent, pass_id, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "workload": self.workload,
                    "pass": pass_id, "attrs": attrs,
                }, separators=(",", ":")) + "\n")


def self_seconds(spans: list[list], pass_id) -> dict[str, float]:
    """Self time per layer within one pass: each span's duration minus the
    part its child spans cover (children never overlap one another)."""
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = {}
    for sid, span in enumerate(spans):
        if span[PASS] != pass_id:
            continue
        layer = span[NAME].split(".", 1)[0]
        own = span[END] - span[START] - covered[sid]
        out[layer] = out.get(layer, 0.0) + own / 1e9
    return out


def durations(spans: list[list], pass_id) -> dict[str, list[float]]:
    """Seconds of every span in one pass, grouped by span name."""
    out: dict[str, list[float]] = {}
    for span in spans:
        if span[PASS] == pass_id:
            out.setdefault(span[NAME], []).append((span[END] - span[START]) / 1e9)
    return out
