"""In-memory span recorder, the wrappers that feed it, and span arithmetic.

A span is one call into a layer: id, parent id, name, start, end and a dict
of counters. Calls too frequent to record one by one (model queries and
input gradients, tens of thousands per run) are leaves: they are summed per
(parent span, name) into calls, seconds and rows. Everything stays in memory
until the traced process writes it out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.leaves: dict[tuple, list] = {}  # (parent id, name) -> [calls, seconds, rows]
        self.missing: list[str] = []  # wrap targets and counters the program lacks
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": self.clock(),
            "end": None,
            "counters": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counters"]
        finally:
            self._open.pop()
            record["end"] = self.clock()

    def leaf(self, name: str, seconds: float, rows: int) -> None:
        key = (self._open[-1] if self._open else None, name)
        acc = self.leaves.setdefault(key, [0, 0.0, 0])
        acc[0] += 1
        acc[1] += seconds
        acc[2] += rows

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [
                {"parent": parent, "name": name, "calls": c, "seconds": s, "rows": r}
                for (parent, name), (c, s, r) in self.leaves.items()
            ],
            "missing": self.missing,
        }


def wrap_span(tracer: Tracer, owner, attr: str, name: str, count=None, undo=None) -> None:
    """Replace owner.attr with a wrapper that records one span per call.

    `count(counters, bound_arguments, result)` fills the span's counters.
    A target the program no longer has, or a counter it can no longer fill,
    is listed in `tracer.missing` instead of stopping the program.
    """
    fn = getattr(owner, attr, None)
    if fn is None:
        tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as counters:
            result = fn(*args, **kwargs)
            if count is not None:
                try:
                    count(counters, sig.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    tracer.missing.append(f"{name} counters: {exc!r}")
        return result

    setattr(owner, attr, wrapper)
    if undo is not None:
        undo.append((owner, attr, fn))


def wrap_leaf(tracer: Tracer, owner, attr: str, name: str, rows=None, undo=None) -> None:
    """Replace owner.attr with a wrapper that adds each call to a leaf total;
    `rows(args)` gives the rows the call handled."""
    fn = getattr(owner, attr, None)
    if fn is None:
        tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        tracer.leaf(name, clock() - t0, rows(args) if rows is not None else 0)
        return result

    setattr(owner, attr, wrapper)
    if undo is not None:
        undo.append((owner, attr, fn))


def restore(undo: list) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(trace: dict) -> dict[int, float]:
    """Per span id: its duration minus the time its child spans and leaves
    took. Children of one span run one after another, so their sum is the
    time they cover."""
    out = {s["id"]: duration(s) for s in trace["spans"]}
    for s in trace["spans"]:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    for leaf in trace["leaves"]:
        if leaf["parent"] is not None:
            out[leaf["parent"]] -= leaf["seconds"]
    return out


def covered_seconds(trace: dict, root: str) -> float:
    """Time covered by the spans and leaves outside span `root` or directly
    under it, `root` itself not counted. Spans strictly nest, so that time is
    the sum of the outermost ones."""
    roots = {s["id"] for s in trace["spans"] if s["name"] == root}
    outer = roots | {None}
    return sum(
        duration(s) for s in trace["spans"] if s["parent"] in outer and s["id"] not in roots
    ) + sum(leaf["seconds"] for leaf in trace["leaves"] if leaf["parent"] in outer)
