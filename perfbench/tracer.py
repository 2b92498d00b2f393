"""Span recorder that instruments fiberent from the outside.

A span is (name, start, end, parent).  Wrapping replaces a function at
every module attribute and class attribute of the package that binds it,
so a call is recorded whichever import style reached it (``rng.mix64``,
``rds.uniform01``, ``covering.product_set``, ...).  Spans live in flat
arrays while the run lasts and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = defaultdict(int)
        self._stack = [-1]
        self._patches: list = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span_wrapper(self, name: str, fn, hook=None):
        """`fn` recording one span per call; `hook(args, result)` sees each success."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block, for the benchmark's own phases."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def install(self, name: str, owner, attr: str, hook=None) -> None:
        """Wrap `owner.attr` as span `name` at every binding of it in fiberent."""
        original = getattr(owner, attr)
        wrapper = self.span_wrapper(name, original, hook)
        for holder in _bindings(original):
            self._patches.append((holder, attr, holder.__dict__[attr]))
            setattr(holder, attr, wrapper)

    def reset(self) -> None:
        """Forget recorded spans and counters; wrappers stay installed."""
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        self.counters.clear()

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def arrays(self) -> dict:
        """The spans as numpy columns, plus each span's self time."""
        name_id = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        return {
            "name_id": name_id, "parent": parent, "start": start, "end": end,
            "duration": duration, "self": duration - children,
        }

    def write(self, path) -> None:
        """All spans, as the columns name_id, start, end, parent, and the names."""
        cols = self.arrays()
        np.savez(
            path, names=np.array(self.names), name_id=cols["name_id"],
            start=cols["start"], end=cols["end"], parent=cols["parent"],
        )


def _bindings(obj) -> list:
    """Every fiberent module or class whose own namespace holds `obj`."""
    holders = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "fiberent" or modname.startswith("fiberent.")):
            continue
        scopes = [module] + [
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == modname
        ]
        for scope in scopes:
            if any(v is obj for v in vars(scope).values()):
                holders.append(scope)
    return holders
