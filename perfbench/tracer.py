"""In-memory span tracer, installed from outside the program.

Spans are placed by replacing the module or class attribute through which
the caller looks a function up (``hccasim.engine.synth_trace``,
``hccasim.engine.Simulation.run``, ...), so nothing under ``src/`` changes.
Three kinds of hook:

* span  - one record per call: id, parent span, name, start, end, run id,
          plus optional attributes taken from the return value;
* leaf  - hot calls (one per poll) are not kept one by one: calls and
          time are summed per (parent span, name), which bounds memory;
* count - calls are counted only, for functions called millions of times.

Self time of a span is its duration minus its child spans and the leaf
time recorded under it. Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


def resolve(target: str):
    """(owner object, attribute name) for a dotted target such as
    'hccasim.engine.Simulation.run'; None when it no longer exists."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []                      # [id, parent, name, start_ns, end_ns, attrs]
        self.leaves = defaultdict(lambda: [0, 0])   # (parent, name) -> [calls, ns]
        self.counts = Counter()
        self.missing = []                    # targets that could not be hooked
        self._stack = []

    # -- installing hooks -------------------------------------------------

    def _install(self, target: str, make):
        found = resolve(target)
        if found is None:
            self.missing.append(target)
            return
        owner, attr = found
        fn = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(fn)(make(fn)))

    def span(self, target: str, name: str, attrs=None):
        """Record one span per call; ``attrs(result)`` adds attributes."""
        def make(fn):
            def wrapper(*args, **kwargs):
                rec = [len(self.spans), self._stack[-1] if self._stack else None,
                       name, time.perf_counter_ns(), None, None]
                self.spans.append(rec)
                self._stack.append(rec[0])
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[4] = time.perf_counter_ns()
                    self._stack.pop()
                if attrs is not None:
                    rec[5] = attrs(result)
                return result
            return wrapper
        self._install(target, make)

    def leaf(self, target: str, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    acc = self.leaves[(self._stack[-1] if self._stack else None, name)]
                    acc[0] += 1
                    acc[1] += time.perf_counter_ns() - t0
            return wrapper
        self._install(target, make)

    def count(self, target: str, name: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._install(target, make)

    # -- reading the trace --------------------------------------------------

    def self_ns(self) -> dict[int, int]:
        own = {s[0]: s[4] - s[3] for s in self.spans}
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[4] - s[3]
        for (parent, _name), (_calls, ns) in self.leaves.items():
            if parent is not None:
                own[parent] -= ns
        return own

    def totals(self) -> dict:
        """Per span name: calls, total ns, self ns and summed numeric
        attributes; per leaf name: calls and ns; plus the plain counts."""
        own = self.self_ns()
        by_name = {}
        for s in self.spans:
            agg = by_name.setdefault(s[2], {"calls": 0, "ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["ns"] += s[4] - s[3]
            agg["self_ns"] += own[s[0]]
            for key, val in (s[5] or {}).items():
                agg[key] = agg.get(key, 0) + val
        leaves = {}
        for (_parent, name), (calls, ns) in self.leaves.items():
            agg = leaves.setdefault(name, {"calls": 0, "ns": 0})
            agg["calls"] += calls
            agg["ns"] += ns
        return {"spans": by_name, "leaves": leaves, "counts": dict(self.counts)}

    def dump(self, path, extra=None):
        own = self.self_ns()
        doc = {
            "run_id": self.run_id,
            "spans": [{"id": s[0], "parent": s[1], "name": s[2], "start_ns": s[3],
                       "end_ns": s[4], "self_ns": own[s[0]], "run_id": self.run_id,
                       "attrs": s[5] or {}} for s in self.spans],
            "leaves": [{"parent": p, "name": n, "calls": c, "ns": ns, "run_id": self.run_id}
                       for (p, n), (c, ns) in self.leaves.items()],
            "totals": self.totals(),
            "missing": self.missing,
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
