"""In-process spans around calls into xxzent's public functions.

`Tracer.installed()` swaps a timing wrapper in for every public function of
the six modules, in every module namespace that bound it (by `from ... import`
as well as its own), and for the suite references in `verify.ALL_SUITES`.
Leaving the context puts the originals back, so untraced replays in the same
process run the unmodified program.  Spans stay in memory, in typed arrays
indexed by span id; `layer_totals` reduces them at the end.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

MODULES = ("linalg", "model", "thermal", "sweep", "verify", "cli")
POINT_COUNTED = "thermal.concurrence_values"  # its result size is the grid points evaluated


class Tracer:
    def __init__(self):
        # `xxzent.sweep` as a package attribute is the function sweep, not the
        # module, so modules are looked up in sys.modules.
        self.modules = {name: sys.modules[f"xxzent.{name}"] for name in MODULES}
        self.names: list[str] = []  # "<module>.<function>" by function id
        self.originals = []
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    self.names.append(f"{layer}.{name}")
                    self.originals.append(obj)
        # One entry per span: function id, parent span id (-1 at the top),
        # start, end, and whether the call raised.
        self.fid, self.parent = array("i"), array("i")
        self.start, self.end, self.raised = array("d"), array("d"), array("b")
        self.points = 0
        self._stack = [-1]

    def _wrap(self, fid: int, fn):
        fids, parents, starts, ends, raised = self.fid, self.parent, self.start, self.end, self.raised
        stack = self._stack
        count_points = self.names[fid] == POINT_COUNTED

        def traced(*args, **kwargs):
            sid = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            raised.append(1)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                raised[sid] = 0
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if count_points:
                self.points += result.size
            return result

        return traced

    @contextmanager
    def installed(self):
        wrappers = {id(fn): self._wrap(fid, fn) for fid, fn in enumerate(self.originals)}
        bound = []  # (module, attribute, original)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    bound.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        verify = self.modules["verify"]
        suites = verify.ALL_SUITES
        verify.ALL_SUITES = tuple(wrappers.get(id(s), s) for s in suites)
        try:
            yield
        finally:
            verify.ALL_SUITES = suites
            for module, attr, value in bound:
                setattr(module, attr, value)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self time, inclusive time and raised errors."""
        totals = [{"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0} for _ in self.names]
        for sid, fid in enumerate(self.fid):
            duration = self.end[sid] - self.start[sid]
            entry = totals[fid]
            entry["calls"] += 1
            entry["self_s"] += duration
            entry["total_s"] += duration
            entry["errors"] += self.raised[sid]
            if self.parent[sid] >= 0:
                totals[self.fid[self.parent[sid]]]["self_s"] -= duration
        return dict(zip(self.names, totals))
