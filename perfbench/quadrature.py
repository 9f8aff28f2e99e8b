"""Workload ``quadrature``: Cauchy reconstruction by the trapezoid rule.

Almost all of the time goes to the per-node loop in ``cauchy``, so a faster
quadrature shows here and a faster element product barely does.

One block is the 18 pairs of node count {64, 256, 512} and degree 0..5, in
seeded order, so every block holds the same mix.  Each pair is one
polynomial used for four consecutive operations on one pair of contours:
three ``cauchy_reconstruct`` calls at targets 0.3..0.7 of the radius from
the centre, then one ``contour_integral_vanishes``.  Reusing the polynomial
and contours is the shared work a cache could exploit.
"""

from __future__ import annotations

import math
import random

from qcone3 import BiSlicePoly, CliffordElement, Quat, cone_point
from qcone3.cauchy import SliceContour, cauchy_reconstruct, contour_integral_vanishes

import calibration
import inputs
from outcome import FAIL, OK

NODE_COUNTS = (64, 256, 512)
DEGREES = tuple(range(6))
TARGETS_PER_POLY = 3
RHO_MIN, RHO_MAX = 0.3, 0.7
# The trapezoid error at relative distance rho falls like rho^N; the
# reconstruction must stay below scale * (GEO * RHO_MAX^N + FLOOR), with
# FLOOR covering rounding in the N-term sum.
GEO = 10.0 / (1.0 - RHO_MAX)
FLOOR = 1e-11
# Closed integrals of a polynomial vanish; acceptance 7 asks 1e-8 relative.
VANISH_REL = 1e-8
#: Tail percentile level: inside the slowest 4% of operations, the
#: reconstructions of degree 5 at 512 nodes.
TAIL_LEVEL = 98.0
WARM_UP_OPS = 8

SIZES = {
    "nodes": list(NODE_COUNTS),
    "degree": [DEGREES[0], DEGREES[-1]],
    "target_rho": [RHO_MIN, RHO_MAX],
    "ops_per_polynomial": TARGETS_PER_POLY + 1,
}


def reconstruction_bound(scale: float, nodes: int) -> float:
    return scale * (GEO * RHO_MAX**nodes + FLOOR)


def _group(rng: random.Random, degree: int, nodes: int) -> list:
    poly = [inputs.uniform_element(rng) for _ in range(degree + 1)]
    center = rng.uniform(-0.5, 0.5)
    radius = rng.uniform(1.0, 2.0)
    unit_i = inputs.unit_imaginary(rng)
    unit_j = inputs.unit_imaginary(rng)
    targets = []
    for _ in range(TARGETS_PER_POLY):
        dist = rng.uniform(RHO_MIN, RHO_MAX) * radius
        theta = rng.uniform(0.15, math.pi - 0.15)
        targets.append(
            (
                center + dist * math.cos(theta),
                dist * math.sin(theta),
                inputs.unit_imaginary(rng),
                inputs.unit_imaginary(rng),
            )
        )
    scale = inputs.poly_bound(poly, abs(center) + radius)
    shared: dict = {}

    def build(tr) -> None:
        coeffs = [tr.call("clifford3", CliffordElement, c) for c in poly]
        shared["poly"] = tr.call("bislice", BiSlicePoly, coeffs)
        for key, unit in (("ci", unit_i), ("cj", unit_j)):
            q = tr.call("qsplit", Quat, *unit)
            shared[key] = tr.call("cauchy", SliceContour, center, radius, q, nodes)

    def reconstruct(target) -> callable:
        alpha, beta, i1, i2 = target

        def op(tr) -> str:
            if not shared:
                build(tr)
            x = tr.call(
                "qsplit",
                cone_point,
                alpha,
                beta,
                tr.call("qsplit", Quat, *i1),
                tr.call("qsplit", Quat, *i2),
            )
            f = shared["poly"]
            value = tr.call("cauchy", cauchy_reconstruct, f, shared["ci"], shared["cj"], x)
            # Each of the two components evaluates the kernel and Horner's
            # rule once per node.
            tr.add("cauchy.nodes", 4 * nodes)
            direct = tr.call("bislice", f.eval, x)
            err = inputs.max_abs_diff(value.coeffs, direct.coeffs)
            return OK if err <= reconstruction_bound(scale, nodes) else FAIL

        return op

    def vanish(tr) -> str:
        if not shared:
            build(tr)
        mi, mj = tr.call(
            "cauchy", contour_integral_vanishes, shared["poly"], shared["ci"], shared["cj"]
        )
        tr.add("cauchy.nodes", 2 * nodes)
        return OK if max(mi, mj) <= VANISH_REL * (1.0 + scale) else FAIL

    return [("reconstruct", reconstruct(t)) for t in targets] + [("vanish", vanish)]


def block(rng: random.Random, ctx) -> list:
    """One block of (kind, operation) pairs; ``ctx`` is unused in-process."""
    pairs = [(d, n) for n in NODE_COUNTS for d in DEGREES]
    rng.shuffle(pairs)
    ops = []
    for degree, nodes in pairs:
        ops.extend(_group(rng, degree, nodes))
    return ops


def reference(ctx):
    """Calibration reference for this workload's timings."""
    return calibration.Loop()
