"""Per-layer spans recorded from outside the program.

A Tracer wraps every public function of the svl layers, at every name
it is bound under in the svl modules (svl.tradeoff imports
maximize_svetlichny by name, svl.cli imports it again, and the package
re-exports it), so a call is recorded whichever binding it goes
through.  Each wrapped call appends one span [name, start_ns, end_ns,
parent]; spans stay in memory until the run writes them out.  Used as
a context manager, the wrappers are installed on entry and the
original bindings restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("qstate", "correlations", "svetlichny", "tradeoff", "cli")

# Constructors and methods traced on their class; every binding of a
# class shares the class object, so one attribute swap covers them all.
METHODS = (
    ("qstate", "DensityMatrix", "__init__", "qstate.DensityMatrix"),
    ("qstate", "StateSpec", "to_pure", "qstate.StateSpec.to_pure"),
)

# The state-construction spans summed into qstate.construct.self_ms.
CONSTRUCT = ("qstate.make_gghz", "qstate.make_ms", "qstate.make_wclass",
             "qstate.make_dicke", "qstate.to_density",
             "qstate.StateSpec.to_pure")


def public_functions():
    """(span name, function) for every public function of every layer."""
    for layer in LAYERS:
        mod = importlib.import_module(f"svl.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield f"{layer}.{name}", obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # (rho, SvetlichnyMaximum) of every traced maximize_svetlichny call.
        self.maxima: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep_result = name == "svetlichny.maximize_svetlichny"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter_ns()
                stack.pop()
            if keep_result:
                self.maxima.append((args[0], out))
            return out

        return traced

    def __enter__(self):
        by_id = {id(fn): (name, fn) for name, fn in public_functions()}
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "svl" and not modname.startswith("svl."):
                continue
            for attr, val in list(vars(mod).items()):
                name, fn = by_id.get(id(val), (None, None))
                if fn is val:
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(name, fn)
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(fn)])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"svl.{layer}"), cls_name)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        return False


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children[idx]]
        out.append(end - start - _covered([iv for iv in inside if iv[0] < iv[1]]))
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total self time and every duration, in ms."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0,
                                                "ms": []})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out[name]
        row["calls"] += 1
        row["self_ms"] += own / 1e6
        row["ms"].append((end - start) / 1e6)
    return out
