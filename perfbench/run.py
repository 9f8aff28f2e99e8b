"""Benchmark of qcone3: one closed loop, one caller, outputs checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 30 --trace 0

Workloads: ``quadrature`` and ``algebra`` call the library in this process;
``cli`` runs ``python -m qcone3.cli`` one child process at a time.  The
next operation starts only after the previous one finished.  Inputs come
from ``--seed`` alone.  Every operation's output is checked; see
``outcome.py`` for how a check's result is counted.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced blocks, prints the per-layer metrics from the spans of
the traced blocks, runs the baseline probes and writes the spans to
``.perfbench_out/``.  Times are scaled to nominal machine speed by an
interleaved reference task (``calibration.py``); the unscaled figures are
printed too.  Human-readable lines come first; the last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import calibration
from outcome import DEFECT, FAIL, OK

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Fresh interpreters whose ``import qcone3`` is timed for ``setup_s``.
IMPORT_SAMPLES = 9
#: ``latency_tail_ms`` is a percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Percentile levels the tail is reported at.
TAIL_LEVELS = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5)
#: Workload name -> module in this directory.
WORKLOADS = {"quadrature": "quadrature", "algebra": "algebra", "cli": "clirun"}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qcone3; "
    "print(time.perf_counter() - t, qcone3.__file__)"
)


class Context:
    """Where the library lives and how to start an interpreter that sees it."""

    def __init__(self):
        self.root = ROOT
        self.src = SRC
        self.python = sys.executable
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("PYTHONSTARTUP", None)

    def owns(self, path: str) -> bool:
        return os.path.abspath(path).startswith(self.src + os.sep)


def measure_import(ctx: Context) -> tuple[list[float], list[float]]:
    """Seconds of ``import qcone3`` in fresh interpreters, and the slowdown around each.

    The first interpreter is dropped: it may compile the byte code.  A
    reference child started after each interpreter calibrates the ones on
    either side of it.
    """
    reference = calibration.Interpreter(ctx)
    times, samples = [], []
    for k in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run(
            [ctx.python, "-c", _IMPORT_PROBE],
            env=ctx.env,
            cwd=ctx.root,
            capture_output=True,
            text=True,
            timeout=60,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or not ctx.owns(fields[1]):
            raise RuntimeError(f"cannot import qcone3 from {ctx.src}: {proc.stderr.strip()}")
        if k:
            times.append(float(fields[0]))
        samples.append((len(times), reference.sample()))
    return times, calibration.local_factors(reference, len(times), samples)


class Tally:
    """Per-operation latencies and outcomes of one set of blocks."""

    def __init__(self, reference):
        self.reference = reference
        self.latencies: list[float] = []
        self.outcomes: list = []
        self.kinds: list[str] = []
        self.timed = 0.0
        #: Calibration samples: (operations completed before it, seconds).
        self.calibration: list[tuple[int, float]] = []

    def calibrate(self) -> float:
        """Take one calibration sample; returns the seconds it took."""
        seconds = self.reference.sample()
        self.calibration.append((len(self.latencies), seconds))
        return seconds

    def run_slowdown(self) -> float:
        mean = sum(s for _, s in self.calibration) / len(self.calibration)
        return mean / self.reference.nominal_s

    def scaled_latencies(self) -> list[float]:
        factors = calibration.local_factors(self.reference, len(self.latencies), self.calibration)
        return [t / f for t, f in zip(self.latencies, factors)]

    def ops_per_s(self, scaled: bool = True) -> float:
        return len(self.latencies) / (self.timed / (self.run_slowdown() if scaled else 1.0))

    def resolve(self) -> Counter:
        """Outcome counts; deferred checks (callables) run here, untimed."""
        counts = Counter()
        for k, result in enumerate(self.outcomes):
            if callable(result):
                result = _guarded(result)
                self.outcomes[k] = result
            counts[result] += 1
        return counts

    def kind_shares(self) -> dict[str, float]:
        spent = Counter()
        for kind, dt in zip(self.kinds, self.latencies):
            spent[kind] += dt
        total = sum(spent.values())
        return {k: spent[k] / total for k in sorted(spent)}


_reported_errors = 0


def _guarded(fn, *args):
    """Run an operation or check; an unexpected exception is a failure."""
    global _reported_errors
    try:
        return fn(*args)
    except Exception:  # the loop must keep running and report the failure
        if _reported_errors < 5:
            traceback.print_exc(file=sys.stderr)
        _reported_errors += 1
        return FAIL


def run_blocks(module, ctx, rng, seconds, tracer=None) -> tuple[Tally, Tally]:
    """Closed loop over whole blocks until ``seconds`` of them are timed.

    With a tracer, odd blocks are traced and even ones are not, so the two
    tallies see the same mix and the difference is the tracing overhead.
    """
    from tracing import NullTracer  # imports qcone3, so only once SRC is on the path

    null = NullTracer()
    reference = module.reference(ctx)
    tallies = (Tally(reference), Tally(reference))
    op_id = 0
    b = 0
    while tallies[0].timed + tallies[1].timed < seconds:
        tr = tracer if tracer is not None and b % 2 else null
        tally = tallies[1 if tr.on else 0]
        ops = module.block(rng, ctx)
        start = time.perf_counter()
        calibrating = tally.calibrate()
        last_sample = time.perf_counter()
        for kind, op in ops:
            t0 = time.perf_counter()
            tr.begin(op_id)
            result = _guarded(op, tr)
            tr.end()
            t1 = time.perf_counter()
            tally.latencies.append(t1 - t0)
            tally.outcomes.append(result)
            tally.kinds.append(kind)
            op_id += 1
            if t1 - last_sample >= reference.every_s:
                calibrating += tally.calibrate()
                last_sample = time.perf_counter()
        calibrating += tally.calibrate()
        tally.timed += time.perf_counter() - start - calibrating
        b += 1
    return tallies


def warm_up(module, ctx, seed: int) -> None:
    """A few untimed operations, so lazy imports and caches are settled."""
    from tracing import NullTracer

    ops = module.block(random.Random(f"warm-up {seed}"), ctx)
    for _, op in ops[: module.WARM_UP_OPS]:
        result = _guarded(op, NullTracer())
        if callable(result):
            _guarded(result)


def tail(latencies: list[float], level: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the tail at a nearest-rank percentile.

    ``level`` is the workload's fixed tail level (``TAIL_LEVEL``).  A run
    with too few operations to have TAIL_BEYOND samples beyond it reports
    the highest lower level of TAIL_LEVELS that has.
    """
    xs = sorted(latencies)
    n = len(xs)
    for p in sorted((q for q in TAIL_LEVELS if q <= level), reverse=True):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], p, n - rank
    return xs[-1], 100.0, 0


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, level, tally, counts, import_times) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and one line per metric with its unit and samples.

    Times are scaled to nominal machine speed (see ``calibration.py``); each
    line also shows the unscaled figure.
    """
    n = len(tally.latencies)
    failed = n - counts[OK]
    scaled = tally.scaled_latencies()
    tail_s, tail_pct, beyond = tail(scaled, level)
    raw_tail_s, _, _ = tail(tally.latencies, level)
    setup = statistics.median(t / f for t, f in zip(*import_times))
    raw_setup = statistics.median(import_times[0])
    slowdown = tally.run_slowdown()
    metrics = {
        "ops_per_s": (
            tally.ops_per_s(),
            "1/s",
            f"{n} ops in {tally.timed:.2f} s; unscaled {tally.ops_per_s(scaled=False):.6g}",
        ),
        "latency_p50_ms": (
            1e3 * statistics.median(scaled),
            "ms",
            f"n={n}; unscaled {1e3 * statistics.median(tally.latencies):.6g}",
        ),
        "latency_tail_ms": (
            1e3 * tail_s,
            "ms",
            f"p{tail_pct:g}, n={n}, {beyond} beyond; "
            f"unscaled {1e3 * raw_tail_s:.6g}",
        ),
        "failed_frac": (failed / n, "fraction", f"{failed} of {n} attempted"),
        "setup_s": (
            setup,
            "s",
            f"median of {len(import_times[0])} fresh interpreters; unscaled {raw_setup:.6g}",
        ),
        "peak_rss_mb": (
            peak_rss_mb(workload),
            "MB",
            "largest child" if workload == "cli" else "this process",
        ),
    }
    lines = [
        f"  slowdown over the run {slowdown:.4f}, from {len(tally.calibration)} samples "
        f"of the {tally.reference.name}"
    ]
    lines += [
        f"  {name:<16} {v:<14.6g} {unit:<9} ({note})"
        for name, (v, unit, note) in metrics.items()
    ]
    return {name: (v, unit) for name, (v, unit, _) in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qcone3", "__init__.py")):
        print(f"error: no qcone3 sources under {SRC}", file=sys.stderr)
        return 2
    ctx = Context()
    sys.path.insert(0, SRC)
    import qcone3

    if not ctx.owns(qcone3.__file__):
        print(f"error: imported qcone3 from {qcone3.__file__}, not {SRC}", file=sys.stderr)
        return 2

    module = importlib.import_module(WORKLOADS[args.workload])
    import_times = measure_import(ctx) if args.trace == 0 else None
    warm_up(module, ctx, args.seed)
    rng = random.Random(f"{args.workload} {args.seed}")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    plain, traced = run_blocks(module, ctx, rng, args.seconds, tracer)
    counts = plain.resolve() + traced.resolve()
    attempted = len(plain.latencies) + len(traced.latencies)
    failed = attempted - counts[OK]
    correct = counts[FAIL] == 0
    print(
        f"qcone3 benchmark: workload {args.workload}, seed {args.seed}, "
        f"trace {args.trace}, python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
        f"closed loop with 1 caller"
    )
    print(f"  input sizes: {json.dumps(module.SIZES)}")
    print(
        f"  attempted {attempted}, failed {failed} "
        f"(known defect {counts[DEFECT]}, unexpected {counts[FAIL]})"
    )
    if args.trace == 0:
        metrics, lines = end_to_end(args.workload, module.TAIL_LEVEL, plain, counts, import_times)
        print("\n".join(lines))
        shares = plain.kind_shares()
        del metrics["failed_frac"]  # 0 on healthy workloads; carried by "failed"
    else:
        import layers

        metrics, lines = layers.per_layer(plain, traced, tracer)
        print("\n".join(lines))
        shares = traced.kind_shares()
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv.gz")
        tracer.write(path)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
    by_kind = ", ".join(f"{k} {v:.3f}" for k, v in shares.items())
    print(f"  share of operation time by kind: {by_kind}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
