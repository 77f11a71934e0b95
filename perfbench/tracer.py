"""In-memory span recorder for the traced benchmark run.

The benchmark swaps the module attributes that the program's callers
look up (``noisegan.trainer.forward`` and so on) for thin wrappers that
record one span per call: name, start, end, parent span and run id.
Spans live in flat arrays while the run is timed and are written out
only when it ends.  The untraced run never constructs a ``Tracer``.
"""

from __future__ import annotations

import csv
import math
import time
from array import array


class Tracer:
    """Records nested spans; one instance per traced run, single-threaded."""

    def __init__(self):
        self.names = []            # span name table; spans store an index into it
        self._name_ids = {}
        self.runs = []             # run labels; spans store an index into it
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.work = array("d")     # per-span count set by a work hook (flops, nodes)
        self._run = -1
        self._stack = []
        self._swapped = []

    def begin_run(self, label: str) -> None:
        """Attribute the spans that follow to run ``label`` (reused if seen)."""
        if label not in self.runs:
            self.runs.append(label)
        self._run = self.runs.index(label)

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _record(self, nid, work, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self.work.append(0.0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            self.work[idx] = work(args, result)
        return result

    def wrap(self, fn, label, work=None):
        """A wrapper around ``fn`` that opens a span named ``label(args)``.

        ``work(args, result)``, when given, stores a count on the span.
        Both hooks run outside the span's own interval.
        """
        def traced(*args, **kwargs):
            return self._record(self._id(label(args)), work, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def swap(self, module, attr: str, label, work=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until ``restore``."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, label, work))
        self._swapped.append((module, attr, original))

    def restore(self) -> None:
        while self._swapped:
            module, attr, original = self._swapped.pop()
            setattr(module, attr, original)

    def self_times(self) -> list:
        return self_times(self.start, self.end, self.parent)

    def write_csv(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("span", "name", "run", "parent", "start_s", "end_s",
                          "self_s", "work"))
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                out.writerow((i, self.names[self.name_id[i]],
                              self.runs[self.run[i]] if self.run[i] >= 0 else "",
                              self.parent[i], repr(self.start[i] - t0),
                              repr(self.end[i] - t0), repr(selfs[i]),
                              repr(self.work[i])))


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it that its child spans cover.

    Children are the spans whose ``parent`` is the span's index.  Child
    intervals are clipped to the parent and overlapping children are
    counted once, so the result is never negative.
    """
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], reach), min(end[k], hi)
            if b > a:
                covered += b - a
                reach = b
        out[p] -= covered
    return out
