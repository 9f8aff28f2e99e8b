"""Spans around the benchmark's own calls into qcone3 modules.

Nothing here reaches inside the library: a span covers one call that the
benchmark makes into a module's public function, and the span's name is
that module.  Every operation gets one root span named ``op``; the spans of
its calls are its children.  A span's self time is its duration minus the
time its child spans cover, so a layer's self time is the time spent in
calls the benchmark made into it, and the root's self time is the
benchmark's own bookkeeping and arithmetic.

Spans are kept in memory in flat arrays and written out once, at the end of
the run.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

from qcone3.errors import ConeAlgebraError

#: The modules of ``src/qcone3`` that do work; ``errors`` only names them.
LAYERS = (
    "clifford3",
    "qsplit",
    "bislice",
    "stem",
    "cauchy",
    "zeros",
    "qdet",
    "grammar",
    "cli",
)
ROOT = "op"


class NullTracer:
    """Tracing off: calls go straight through and counts are dropped."""

    on = False

    def begin(self, op_id: int) -> None:
        pass

    def end(self) -> None:
        pass

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, counter: str, amount: float = 1) -> None:
        pass


class Tracer:
    """Tracing on: one span per call, plus named counters."""

    on = True

    def __init__(self):
        self.names = [ROOT, *LAYERS]
        self._name_index = {name: k for k, name in enumerate(self.names)}
        self.name = array("b")
        self.start = array("d")
        self.stop = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.error = array("b")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_index[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.error.append(0)
        self.stop.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.stop[idx] = time.perf_counter()
        self._stack.pop()

    def begin(self, op_id: int) -> None:
        self._op = op_id
        self._open(ROOT)

    def end(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()

    def call(self, layer, fn, *args, **kwargs):
        idx = self._open(layer)
        try:
            return fn(*args, **kwargs)
        except ConeAlgebraError:
            self.error[idx] = 1
            raise
        finally:
            self._close(idx)

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] += amount

    def record(self, layer: str, start: float, stop: float, error: bool) -> None:
        """A span whose interval was measured by the caller (child processes)."""
        idx = self._open(layer)
        self._close(idx)
        self.start[idx] = start
        self.stop[idx] = stop
        self.error[idx] = int(error)

    # -- summaries -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span name: calls, self seconds, named errors; plus op totals."""
        n = len(self.name)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.stop[k] - self.start[k]
        totals = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in self.names}
        ops = 0
        op_s = 0.0
        for k in range(n):
            name = self.names[self.name[k]]
            dur = self.stop[k] - self.start[k]
            t = totals[name]
            t["calls"] += 1
            t["self_s"] += dur - child[k]
            t["errors"] += self.error[k]
            if name == ROOT:
                ops += 1
                op_s += dur
        return {"layers": totals, "ops": ops, "op_s": op_s}

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: op,span,parent,name,start_s,end_s,error."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("op,span,parent,name,start_s,end_s,error\n")
            names = self.names
            for k in range(len(self.name)):
                fh.write(
                    f"{self.op[k]},{k},{self.parent[k]},{names[self.name[k]]},"
                    f"{self.start[k]:.9f},{self.stop[k]:.9f},{self.error[k]}\n"
                )
