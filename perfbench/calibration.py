"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host shared with other tenants the same code runs up to a third
slower for seconds to minutes at a time, so raw times of whole runs spread
by 20% or more.  The benchmark therefore interleaves a fixed reference
task, which runs no qcone3 code, with its operations and reports every
time scaled by ``nominal / measured reference time``: the time the work
would have taken had the machine run the reference at its nominal speed.
Each figure is scaled by the reference's mean time over the interval the
figure covers: a whole run for throughput, the samples on either side of
an operation for its latency.  Run outputs also print the unscaled figures
and the factor.

Two references, each matched to the work it calibrates:

* :class:`Loop`, for work in this process: products of small slotted
  objects holding floats, as the library's element arithmetic does.  Under
  interference the library slows as much as this loop; it slows about 1.5
  times as much as a loop of integer additions, which is why the loop
  multiplies objects.
* :class:`Interpreter`, for child processes: a child interpreter that
  imports the standard-library modules ``qcone3.cli`` pulls in, and exits.
  A child's time goes to starting up and importing, which a loop in this
  process tracks poorly; this start-up tracks it best of those tried, a
  bare ``python -c pass`` included.
"""

from __future__ import annotations

import subprocess
import time


class _Pair:
    """Four floats and a product in the shape of a quaternion product."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __mul__(self, o):
        return _Pair(
            self.a * o.a - self.b * o.b - self.c * o.c - self.d * o.d,
            self.a * o.b + self.b * o.a + self.c * o.d - self.d * o.c,
            self.a * o.c - self.b * o.d + self.c * o.a + self.d * o.b,
            self.a * o.d + self.b * o.c - self.c * o.b + self.d * o.a,
        )


_UNIT = _Pair(0.6, 0.48, 0.64, 0.0)


class Loop:
    """600 object products in this process, about half a millisecond."""

    name = "object-product loop"
    #: Typical time of one sample on a quiet 2-CPU host.
    nominal_s = 5.0e-4
    #: A sample follows an operation once this long has passed since the last.
    every_s = 0.02

    def sample(self) -> float:
        t = time.perf_counter()
        x = _Pair(1.0, 0.0, 0.0, 0.0)
        for _ in range(600):
            x = x * _UNIT
        return time.perf_counter() - t


class Interpreter:
    """Start of a child interpreter that imports what the CLI imports, then exits."""

    name = "interpreter start"
    #: Standard-library modules that ``import qcone3.cli`` loads.
    IMPORTS = "argparse, dataclasses, decimal, json"
    #: Typical time of one sample on a quiet 2-CPU host.
    nominal_s = 0.08
    #: A sample follows an operation once this long has passed since the last.
    every_s = 0.25

    def __init__(self, ctx):
        self._cmd = [ctx.python, "-c", f"import {self.IMPORTS}"]
        self._env = ctx.env
        self._cwd = ctx.root

    def sample(self) -> float:
        t = time.perf_counter()
        subprocess.run(self._cmd, env=self._env, cwd=self._cwd, check=True, timeout=60)
        return time.perf_counter() - t


def local_factors(reference, n_ops: int, samples: list[tuple[int, float]]) -> list[float]:
    """Slowdown around each operation: mean of the samples just before and after it.

    ``samples`` holds (operations completed before the sample, seconds), in
    order, with one sample before the first operation.
    """
    factors = []
    k = 0
    for i in range(n_ops):
        while k + 1 < len(samples) and samples[k + 1][0] <= i:
            k += 1
        before = samples[k][1]
        after = samples[k + 1][1] if k + 1 < len(samples) else before
        factors.append(0.5 * (before + after) / reference.nominal_s)
    return factors
