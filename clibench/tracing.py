"""Spans around nbrw's layers, for the benchmark's traced in-process run.

``install`` wraps every public function of the package's layer modules and
puts the wrapper wherever callers look the function up: in every nbrw
module namespace that holds a reference to it.  Each call records a span
(name, start, end, parent) in memory.  ``exact`` gets no spans: its
operations are too fine-grained to wrap without distorting them, so its
cost shows up in the ``conditions`` spans that call it.

``graph.dart_transitions`` is left unwrapped for the same reason: it is
called once per dart in the hot loops (about 255,000 times in one
``verdict`` round), and a span per call added some 15 % to the round.

The walk kernel runs in worker threads.  Its callable, as returned by
``get_kernel``, is wrapped too; a span opened on a thread with no open span
of its own takes the main thread's innermost open span as parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "graph", "conditions", "operators", "variance", "walks", "_kernels", "families")
UNWRAPPED = {"graph.dart_transitions"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span named ``name``; ``after(tracer, args,
        result)`` may add counts once the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            record = [name, perf_counter(), None, parent]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced


def _count_arcs(tracer, args, op):
    tracer.counts["operators.arcs"] += int(op.matrix.nnz)


def _count_iterations(tracer, args, result):
    tracer.counts["operators.perron_iterations"] += int(result.iterations)


def _count_steps(tracer, args, result):
    length, out_counts = args[2], args[6]
    tracer.counts["kernels.steps"] += int(length) * int(out_counts.shape[0])


AFTER = {
    "operators.build_nb_matrix": _count_arcs,
    "operators.build_transition_matrix": _count_arcs,
    "operators.build_weighted_matrix": _count_arcs,
    "operators.perron": _count_iterations,
}


def install(tracer: Tracer):
    """Wrap the layers of the imported ``nbrw``; returns a function that
    puts every original back."""
    modules = {layer: importlib.import_module(f"nbrw.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        prefix = layer.lstrip("_")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{prefix}.{attr}"
            if name in UNWRAPPED:
                continue
            target = obj
            if name == "kernels.get_kernel":
                target = _kernel_wrapping(tracer, obj)
            wrappers[obj] = tracer.wrap(name, target, AFTER.get(name))

    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nbrw" or mod_name.startswith("nbrw.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                undo.append((mod, attr, obj))

    batch = modules["walks"].WalkBatch
    bit_stats = batch.bit_stats
    batch.bit_stats = tracer.wrap("walks.bit_stats", bit_stats)
    undo.append((batch, "bit_stats", bit_stats))

    def uninstall():
        for owner, attr, obj in undo:
            setattr(owner, attr, obj)

    return uninstall


def _kernel_wrapping(tracer, get_kernel):
    @functools.wraps(get_kernel)
    def wrapped(*args, **kwargs):
        name, kernel = get_kernel(*args, **kwargs)
        return name, tracer.wrap("kernels.sample", kernel, _count_steps)

    return wrapped


# --- reading the spans ----------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class SpanSummary:
    """Times and counts read from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.counts = tracer.counts
        self.children: dict[int, list[int]] = {}
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                self.children.setdefault(parent, []).append(i)

    def _ancestors(self, i: int):
        parent = self.spans[i][3]
        while parent is not None:
            yield parent
            parent = self.spans[parent][3]

    def outermost(self, match) -> list[int]:
        """Spans whose name matches and that lie inside no matching span."""
        return [
            i for i, s in enumerate(self.spans)
            if match(s[0]) and not any(match(self.spans[a][0]) for a in self._ancestors(i))
        ]

    def covered(self, match) -> float:
        """Wall time inside spans whose name matches, nested ones counted once."""
        return _union_length((self.spans[i][1], self.spans[i][2]) for i in self.outermost(match))

    def time(self, *names: str) -> float:
        return self.covered(set(names).__contains__)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def _self(self, i: int) -> float:
        """Span i's duration minus the part its children cover."""
        kids = [(self.spans[c][1], self.spans[c][2]) for c in self.children.get(i, [])]
        return self.spans[i][2] - self.spans[i][1] - _union_length(kids)

    def self_time(self, name: str) -> float:
        return sum(self._self(i) for i, s in enumerate(self.spans) if s[0] == name)

    def coverage(self) -> float:
        """Share of ``cli.main`` time spent inside spans of the layers below
        the CLI (the rest is the CLI's own argument and output handling)."""
        main = sum(s[2] - s[1] for s in self.spans if s[0] == "cli.main")
        return self.covered(lambda n: not n.startswith("cli.")) / main if main > 0 else 0.0

    def by_name(self) -> dict[str, dict]:
        """calls, total and self seconds per span name."""
        table: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self._self(i)
        return table
