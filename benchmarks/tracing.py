"""Spans, counts and garbage-collector pauses, kept in memory for one run.

A span records name, start, end, parent span and round.  Spans are opened by
the benchmark around its calls into each layer of `atomic`; each job's span
is named `bench.job`, so a layer's self time is its span time minus the time
its child spans cover, and `bench` self time is the benchmark's own glue.
"""

from __future__ import annotations

import contextlib
import gc
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Stand-in for untraced rounds: spans and counts cost one call each."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, round]
        self.counts = defaultdict(dict)  # round -> name -> value
        self.round = 0
        self._stack = []
        self._gc_start = None

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None,
                  self.round]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name, value):
        counts = self.counts[self.round]
        counts[name] = counts.get(name, 0) + value

    # Collections are attributed to the module of the innermost open span;
    # those outside every job (during checks) are not counted.
    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
            return
        if self._gc_start is None or not self._stack:
            return
        pause = perf_counter() - self._gc_start
        self._gc_start = None
        module = self.spans[self._stack[-1]][0].split(".")[0]
        for prefix in ("gc.", f"{module}.gc_"):
            self.count(prefix + "collections", 1)
            self.count(prefix + "pause_s", pause)

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        self._gc_start = None

    def round_figures(self, rnd):
        """name -> value for one round: busy time per span name, self time
        per module, and the round's counts."""
        mine = [i for i, s in enumerate(self.spans) if s[4] == rnd]
        children = defaultdict(float)
        for i in mine:
            _, start, end, parent, _ = self.spans[i]
            if parent is not None:
                children[parent] += end - start
        out = defaultdict(float)
        for index in mine:
            name, start, end, _, _ = self.spans[index]
            out[f"{name}.busy_s"] += end - start
            out[f"{name.split('.')[0]}.self_s"] += end - start - children[index]
        out.update(self.counts.get(rnd, {}))
        return out

    def dump(self):
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "round": r}
                      for n, s, e, p, r in self.spans],
            "counts": {str(r): c for r, c in self.counts.items()},
        }
