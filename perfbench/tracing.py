"""Outside-in tracing of diam_ramsey's public entry points.

The wrappers live here, in the benchmark, not in the package: each one is
installed as a class attribute or as a module attribute of every
diam_ramsey module that holds the original object. `search`, `lemmas` and
`constructions` look these names up at call time, so calls made inside the
package pass through the wrappers too.

Every wrapped call adds to an aggregate (calls, inclusive ns, self ns,
work units such as positions). Points marked as spans also record one
(id, parent id, rep id, name, start ns, end ns) in memory; the spans are
written out once, when the run ends. Self time is the call's duration
minus the time of the wrapped calls it made, and minus, per such call,
the cost a wrapper adds to its caller (its work outside its own clock
readings, less that of a plain call). The tracer measures that cost once,
on an empty function, when it is made.

Pool workers report nothing back (a forked worker runs its own copy of
the wrappers, a spawned one none), so the counts cover only the work
done in the parent process.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (metric prefix, owner, attribute, units(args, result) or None, span)
# The owner is a class name or "" for a module-level function.
_POINTS = (
    ("checker.extend", "IncrementalState", "extend", None, False),
    ("checker.retract", "IncrementalState", "retract", None, False),
    ("checker.exists_solution", "", "exists_solution",
     lambda args, out: args[0].length, True),
    ("checker.validate_witness", "", "validate_witness", None, True),
    ("coloring.construct", "Coloring", "__init__",
     lambda args, out: args[0].length, False),
    ("coloring.format", "", "format_run_string",
     lambda args, out: args[0].length, True),
    ("coloring.parse", "", "parse_run_string",
     lambda args, out: out.length, True),
    ("constructions.build", "", "lower_bound_coloring",
     lambda args, out: out.length, True),
    ("lemmas.find_extremal_b1", "", "find_extremal_b1", None, False),
    ("lemmas.classify_lemma21", "", "classify_lemma21", None, False),
    ("lemmas.check_lemma22", "", "check_lemma22", None, False),
    ("lemmas.sweep", "", "sweep_lemmas", None, True),
    ("search.compute_f", "", "compute_f", None, True),
)


class Tracer:
    """Aggregates per rep and spans per run; install()/remove() per rep."""

    def __init__(self) -> None:
        # name -> [calls, inclusive ns, self ns, units]
        self.stats: dict[str, list[int]] = {p[0]: [0, 0, 0, 0] for p in _POINTS}
        self.spans: list[tuple] = []
        # Frames are [child ns, child calls, span id]; the bottom frame is
        # the rep.
        self._stack: list[list] = [[0, 0, None]]
        self._next_id = 1
        self.rep_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self.call_cost_ns = 0.0
        self.call_cost_ns = self._calibrate()

    def _wrap(self, name, fn, units, span, stat):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self
        call_cost = self.call_cost_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                sid = parent[2]
            frame = [0, 0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                parent[1] += 1
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0] - frame[1] * call_cost
                if span:
                    spans.append((sid, parent[2], tracer.rep_id, name, t0, t1))
            if units is not None:
                stat[3] += units(args, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__module__ = getattr(fn, "__module__", None)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _calibrate(self, calls=20000, trials=7):
        """ns a wrapped call adds to its caller's time beyond a plain call."""
        def empty():
            return None

        clock = time.perf_counter_ns
        stat = [0, 0, 0, 0]
        wrapped = self._wrap("calibrate", empty, None, False, stat)
        costs = []
        for _ in range(trials):
            stat[1] = 0
            t0 = clock()
            for _ in range(calls):
                wrapped()
            t1 = clock()
            for _ in range(calls):
                empty()
            t2 = clock()
            costs.append((t1 - t0 - stat[1] - (t2 - t1)) / calls)
        self._stack[0][:] = [0, 0, None]
        return max(0.0, statistics.median(costs))

    def install(self, api) -> None:
        """Zero the aggregates and wrap the entry points of the package api."""
        for stat in self.stats.values():
            stat[:] = [0, 0, 0, 0]
        pkg = api.__name__
        mods = [
            mod for key, mod in list(sys.modules.items())
            if key == pkg or key.startswith(pkg + ".")
        ]
        for name, owner, attr, units, span in _POINTS:
            stat = self.stats[name]
            if owner:
                cls = getattr(api, owner)
                orig = cls.__dict__[attr]
                self._saved.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig, units, span, stat))
                continue
            orig = getattr(api, attr)
            wrapped = self._wrap(name, orig, units, span, stat)
            for mod in mods:
                if mod.__dict__.get(attr) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def snapshot(self) -> dict[str, tuple[int, ...]]:
        return {k: tuple(v) for k, v in self.stats.items()}

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "rep", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            json.dump({"fields": keys, "spans": self.spans}, fh)
