"""Per-layer metrics of a traced run, and the ROADMAP baseline probes."""

from __future__ import annotations

import math
import random
import sys
import timeit

import calibration
from tracing import LAYERS, ROOT

#: ROADMAP aim 1 baseline (2 CPUs, Python 3.10, best of 3), for comparison.
ROADMAP_BASELINE = {
    "probe.clifford_mul_us": 11.5,
    "probe.quat_mul_us": 2.8,
    "probe.split_mul_join_us": 31.0,
    "probe.eval_deg5_us": 140.0,
    "probe.reconstruct_deg5_n512_ms": 77.0,
}
ROADMAP_PYTHON = "3.10"
#: Calibration samples taken before and after the probes.
CALIBRATION_SAMPLES = 20


def per_layer(plain, traced, tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans of the traced blocks.

    Times are scaled by the traced blocks' calibration slowdown, as the
    end-to-end throughput is; shares and counts need no scaling.  The
    probes are best-of timings and stay unscaled, like the ROADMAP's.
    """
    totals = tracer.layer_totals()
    layers = totals["layers"]
    ops = max(totals["ops"], 1)
    op_s = totals["op_s"] or 1.0
    slowdown = traced.run_slowdown()
    m: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        t = layers[name]
        m[f"{name}.calls"] = (t["calls"], "count")
        m[f"{name}.self_ms"] = (1e3 * t["self_s"] / ops / slowdown, "ms")
        m[f"{name}.share"] = (t["self_s"] / op_s, "fraction")
        m[f"{name}.errors"] = (t["errors"], "count")
    m["harness.share"] = (layers[ROOT]["self_s"] / op_s, "fraction")

    c = tracer.counters
    nodes = c["cauchy.nodes"]
    m["cauchy.nodes"] = (nodes, "count")
    m["cauchy.us_per_node"] = (
        1e6 * layers["cauchy"]["self_s"] / nodes / slowdown if nodes else 0.0,
        "us",
    )
    m["clifford3.products"] = (c["clifford3.products"], "count")
    m["bislice.coeff_products"] = (c["bislice.coeff_products"], "count")

    calls = layers["cli"]["calls"]
    wall = 1e3 * layers["cli"]["self_s"] / calls / slowdown if calls else 0.0
    cpu = 1e3 * c["cli.child_cpu_s"] / calls / slowdown if calls else 0.0
    m["cli.wall_ms"] = (wall, "ms")
    m["cli.child_cpu_ms"] = (cpu, "ms")
    m["cli.wait_ms"] = (wall - cpu, "ms")

    m["trace.overhead_frac"] = (plain.ops_per_s() / traced.ops_per_s() - 1.0, "fraction")

    lines = [
        f"  traced {totals['ops']} operations, {len(tracer.name)} spans, "
        f"machine slowdown {slowdown:.4f}"
    ]
    lines += [f"  {k:<30} {v:<14.6g} {u}" for k, (v, u) in m.items()]
    probes, probe_slowdown = run_probes()
    here = sys.version.split()[0]
    lines.append(f"  probes: best of rounds, scaled by slowdown {probe_slowdown:.4f}")
    for k, (v, u) in probes.items():
        lines.append(
            f"  {k:<30} {v:<14.6g} {u:<3} (Python {here}, unscaled "
            f"{v * probe_slowdown:.4g}; ROADMAP {ROADMAP_BASELINE[k]:g} "
            f"on Python {ROADMAP_PYTHON})"
        )
    m.update(probes)
    return m, lines


def _best(fn, number: int, repeat: int = 5) -> float:
    """Best mean seconds per call over ``repeat`` rounds of ``number`` calls."""
    return min(timeit.Timer(fn).repeat(repeat=repeat, number=number)) / number


def run_probes() -> tuple[dict[str, tuple[float, str]], float]:
    """Best-of timings of the ROADMAP's L0-L2 baseline operations, and their slowdown.

    Inputs are fixed, not seeded, so every run times the same operations.
    Times are scaled by the object-product loop's slowdown around them.
    """
    from qcone3 import BiSlicePoly, CliffordElement, Quat, cone_point, join, split
    from qcone3.cauchy import SliceContour, cauchy_reconstruct

    rng = random.Random(2109)

    def element():
        return CliffordElement([rng.uniform(-1.5, 1.5) for _ in range(8)])

    def unit():
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(a * a for a in v))
        return Quat(0.0, *(a / n for a in v))

    x, y = element(), element()
    p, q = split(x).p, split(y).p
    poly = BiSlicePoly([element() for _ in range(6)])
    at = cone_point(0.3, 0.5, unit(), unit())
    ci = SliceContour(0.0, 2.0, unit(), 512)
    cj = SliceContour(0.0, 2.0, unit(), 512)

    def split_mul_join():
        sx, sy = split(x), split(y)
        return join(sx.p * sy.p, sx.q * sy.q)

    reference = calibration.Loop()
    samples = [reference.sample() for _ in range(CALIBRATION_SAMPLES)]
    raw = {
        "probe.clifford_mul_us": (1e6 * _best(lambda: x * y, 2000), "us"),
        "probe.quat_mul_us": (1e6 * _best(lambda: p * q, 5000), "us"),
        "probe.split_mul_join_us": (1e6 * _best(split_mul_join, 2000), "us"),
        "probe.eval_deg5_us": (1e6 * _best(lambda: poly.eval(at), 300), "us"),
        "probe.reconstruct_deg5_n512_ms": (
            1e3 * _best(lambda: cauchy_reconstruct(poly, ci, cj, at), 1, repeat=3),
            "ms",
        ),
    }
    samples += [reference.sample() for _ in range(CALIBRATION_SAMPLES)]
    slowdown = sum(samples) / len(samples) / reference.nominal_s
    return {k: (v / slowdown, u) for k, (v, u) in raw.items()}, slowdown
