"""In-memory span recorder for the traced run.

A span is one call from the benchmark into a public function of a
``coeffsharp`` layer (or one whole workload item).  It records the name
(``<layer>.<function>``), the workload item it belongs to, the span that
was open when it started (its parent), start and end times from
``time.perf_counter``, and the number of the pass it ran in.  Spans stay in
memory; the worker writes them out once, after the run.

Untraced runs use :data:`NULL`, whose ``span`` hands back one shared
no-op context manager, so item code is identical in both modes.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

FIELDS = ("id", "name", "item", "parent", "start", "end", "pass")


class Tracer:
    def __init__(self):
        self.spans = []  # one list per span, laid out as FIELDS
        self.notes = defaultdict(lambda: defaultdict(list))  # name -> item -> values
        self.pass_no = 0
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str, item: str | None = None):
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = self.spans[parent][2]
        rec = [len(self.spans), name, item, parent, time.perf_counter(), None, self.pass_no]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._open.pop()

    def note(self, name: str, value) -> None:
        """Record a value the open item observed (a count, a gap, a discrepancy)."""
        item = self.spans[self._open[-1]][2] if self._open else None
        self.notes[name][item].append(value)


class _NullTracer:
    _ctx = contextlib.nullcontext()

    def span(self, name, item=None):
        return self._ctx

    def note(self, name, value):
        pass


NULL = _NullTracer()


def fastest_calls(spans) -> dict:
    """The fastest repetition of every call, as (duration, self time).

    A call is keyed by its item, its name and its rank among the same-named
    spans of that item in one pass, so the same call in another pass is a
    repetition of it.  Self time is the duration minus the part covered by
    child spans.
    """
    child = defaultdict(float)
    for _, _, _, parent, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    rank = Counter()
    best = {}
    for sid, name, item, _, start, end, pass_no in spans:
        key = (item, name, rank[pass_no, item, name])
        rank[pass_no, item, name] += 1
        dur, own = end - start, end - start - child[sid]
        if key in best:
            dur, own = min(dur, best[key][0]), min(own, best[key][1])
        best[key] = (dur, own)
    return best


def durations(calls, name: str, item_prefix: str = "") -> list[float]:
    """Fastest durations of the calls named ``name`` whose item id (the part
    after ``<workload>/``) starts with ``item_prefix``."""
    return [dur for (item, cname, _), (dur, _) in calls.items()
            if cname == name and item.split("/", 1)[1].startswith(item_prefix)]


def self_times(calls) -> dict[str, float]:
    """Self time of every call at its fastest repetition, summed per layer.

    The layer is the first dotted component of a span name; ``bench`` is
    the benchmark's own item wrapper (input handling and output checks).
    """
    out = defaultdict(float)
    for (_, name, _), (_, own) in calls.items():
        out[name.split(".", 1)[0]] += own
    return dict(out)
