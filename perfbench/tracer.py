"""In-memory span tracer that wraps functions at the attribute their callers
look up, so the program itself is not edited.

A span is (name, start, end, parent, items): perf_counter seconds, the index
of the enclosing span (-1 at the top) and an optional work count such as the
number of queries in a batch. Spans are kept in a list and written out once,
after the run.
"""

from __future__ import annotations

import functools
import json
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    items: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Target:
    """One function to wrap: owner.attr, reported under name. name may be a
    callable of (args, kwargs) for spans that split by an argument; items,
    when given, maps (args, kwargs) to the work count of the call."""
    owner: object
    attr: str
    name: object
    items: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, items: int) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, items))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid].end = perf_counter()

    @contextmanager
    def span(self, name: str, items: int = 0):
        sid = self._open(name, items)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, target: Target):
        name, count = target.name, target.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name(args, kwargs) if callable(name) else name,
                             count(args, kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return wrapper

    @contextmanager
    def installed(self, targets: list[Target]):
        """Replace every target with a recording wrapper; restore on exit."""
        saved = []
        try:
            for t in targets:
                original = t.owner.__dict__[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(original, t))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "items": s.items}) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call, measured on a no-op."""
    box = types.SimpleNamespace(noop=lambda: None)
    t0 = perf_counter()
    for _ in range(n):
        box.noop()
    plain = perf_counter() - t0
    with Tracer().installed([Target(box, "noop", "noop")]):
        t0 = perf_counter()
        for _ in range(n):
            box.noop()
        wrapped = perf_counter() - t0
    return (wrapped - plain) / n


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]]
        out.append(s.duration - _covered(kids))
    return out


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


def summarize(spans: list[Span], within: str | None = None) -> dict[str, SpanStats]:
    """Per-name call count, inclusive time, self time and items. With within,
    only spans nested (at any depth) under a span of that name count."""
    keep = _descendants(spans, within) if within else range(len(spans))
    selfs = self_times(spans)
    out: dict[str, SpanStats] = defaultdict(SpanStats)
    for i in keep:
        s = spans[i]
        st = out[s.name]
        st.calls += 1
        st.total_s += s.duration
        st.self_s += selfs[i]
        st.items += s.items
    return dict(out)


def _descendants(spans: list[Span], root_name: str) -> list[int]:
    inside = [False] * len(spans)
    for i, s in enumerate(spans):  # parents always precede their children
        inside[i] = s.name == root_name or (s.parent >= 0 and inside[s.parent])
    return [i for i, flag in enumerate(inside) if flag]
