"""Workload ``algebra``: a seeded mix of small requests, no contour loop.

Element products, ``Quat`` construction and ``split``/``join`` carry this
mix, so a pair-native element core shows here while faster quadrature
does not.  Every request has fresh inputs and runs four stages: parse
(``grammar``), compute, verify, format (``grammar.format_element``).  Each
verification is an identity computed along a different path from the
result it checks.

A block holds ``WEIGHTS[kind]`` requests of each kind in seeded order; the
weights make each kind's share of wall time roughly equal, and a run
prints the measured shares.
"""

from __future__ import annotations

import math
import random

from qcone3 import BiSlicePoly, CliffordElement, ConePoint, Quat
from qcone3 import bislice, clifford3, grammar, qdet, qsplit, stem, zeros

import calibration
import inputs
from outcome import FAIL, OK

WEIGHTS = {"roots": 3, "star": 3, "mult": 3, "det": 4, "dbar": 4, "stem": 3, "elem": 12}
#: Tail percentile level.  Above about p99.7 the slowest requests are of
#: every kind, slowed by the host's interruptions; from p99.7 to p99 they are
#: ``roots`` requests with two spheres, whose 49 sampled zeros are checked.
TAIL_LEVEL = 99.5
WARM_UP_OPS = 20
PARITY_SAMPLES = 4

# Relative tolerances of the checks, each against a scale the benchmark
# computes from its own raw inputs.
ROOTS_TOL = 1e-9
STAR_TOL = 1e-12
MULT_TOL = 1e-7
DET_TOL = 1e-11
DBAR_TOL = 1e-6
STEM_TOL = 1e-12
ELEM_TOL = 1e-12

SIZES = {
    "star_degree": [1, 4],
    "mult_factors": [2, 4],
    "poly_degree_dbar_stem": [1, 3],
    "power": [2, 5],
    "block": dict(WEIGHTS),
}

_SAMPLE_UNITS = [Quat(*u) for u in inputs.AXIS_UNITS[::2]] + [
    Quat(0.0, a / math.sqrt(n), b / math.sqrt(n), c / math.sqrt(n))
    for a, b, c, n in ((1, 1, 0, 2), (1, 1, 1, 3), (2, -1, 1, 6))
]


def _split(c) -> tuple[tuple, tuple]:
    """Quaternion pair of raw coefficients, as the benchmark's own formula."""
    p = (c[0] + c[7], c[6] - c[1], c[5] + c[2], c[4] - c[3])
    q = (c[0] - c[7], c[6] + c[1], c[5] - c[2], c[4] + c[3])
    return p, q


_ONE = CliffordElement((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def _diff(x: CliffordElement, y: CliffordElement) -> float:
    return inputs.max_abs_diff(x.coeffs, y.coeffs)


def _format_all(tr, elements) -> None:
    for e in elements:
        tr.call("grammar", grammar.format_element, e)


def _convolution_terms(lengths) -> int:
    """Terms a_i b_j of the star convolutions that expand factors of these lengths."""
    total, length = 0, 1
    for n in lengths:
        total += length * n
        length += n - 1
    return total


# -- roots ---------------------------------------------------------------------

SHAPES = ("sphere", "point", "two_points")


def _dyadic_imag(rng) -> tuple[float, float, float]:
    while True:
        v = tuple(inputs.dyadic(rng, 12) for _ in range(3))
        if any(v):
            return v


def quadratic_side(rng, shape: str) -> tuple[tuple, tuple]:
    """Factor constants (a, b) of one component with the given zero shape."""
    re = inputs.dyadic(rng, 12)
    v = _dyadic_imag(rng)
    a = (re, *v)
    if shape == "sphere":
        return a, (re, -v[0], -v[1], -v[2])
    if shape == "point":
        while True:
            signs = [rng.choice((-1.0, 1.0)) for _ in range(3)]
            w = tuple(s * x for s, x in zip(signs, v[1:] + v[:1]))
            if w != tuple(-x for x in v):
                return a, (re, *w)
    while True:
        b = (inputs.dyadic(rng, 12), *_dyadic_imag(rng))
        same = b[0] == re and abs(math.dist(b[1:], (0, 0, 0)) - math.dist(v, (0, 0, 0))) < 1e-3
        if not same:
            return a, b


def expected_case(shapes, sides) -> str:
    kinds = set(shapes)
    if kinds == {"sphere"}:
        (ap, _), (aq, _) = sides
        same = ap[0] == aq[0] and math.dist(ap[1:], (0, 0, 0)) == math.dist(aq[1:], (0, 0, 0))
        return "1.1" if same else "1.2"
    return {
        frozenset({"sphere", "point"}): "2",
        frozenset({"sphere", "two_points"}): "3",
        frozenset({"two_points"}): "4",
        frozenset({"point"}): "5",
        frozenset({"point", "two_points"}): "6",
    }[frozenset(kinds)]


def roots(rng):
    shapes = (rng.choice(SHAPES), rng.choice(SHAPES))
    sides = [quadratic_side(rng, s) for s in shapes]
    alpha = inputs.join(sides[0][0], sides[1][0])
    beta = inputs.join(sides[0][1], sides[1][1])
    lead = rng.choice((1.0, 2.0, 0.5))
    text = inputs.factored([alpha, beta], lead)
    expected = expected_case(shapes, sides)
    scale = lead * (1.0 + inputs.magnitude(alpha) + inputs.magnitude(beta)) ** 2

    def op(tr) -> str:
        lead_, consts = tr.call("grammar", grammar.parse_factored, text)
        zs = tr.call("zeros", zeros.classify_quadratic, consts[0], consts[1])
        poly = tr.call("bislice", BiSlicePoly.from_factors, consts, lead_)
        tr.add("bislice.coeff_products", _convolution_terms([2, 2]))
        residual = tr.call("zeros", zeros.verify_zeros, poly, zs, _SAMPLE_UNITS)
        ok = zs.case == expected and residual <= ROOTS_TOL * scale
        for q in zs.side_p.points + zs.side_q.points:
            tr.call("grammar", grammar.format_quat, q)
        _format_all(tr, poly.coeffs)
        return OK if ok else FAIL

    return op


# -- star ----------------------------------------------------------------------


def star(rng):
    f = [inputs.dyadic_element(rng) for _ in range(rng.randint(1, 4) + 1)]
    g = [inputs.dyadic_element(rng) for _ in range(rng.randint(1, 4) + 1)]
    x = inputs.dyadic_element(rng)
    texts = inputs.coeff_list(f), inputs.coeff_list(g), inputs.terms(x)
    reach = 1.0 + 2.0 * inputs.magnitude(x)
    scale = inputs.poly_bound(f, reach) * inputs.poly_bound(g, reach)

    def op(tr) -> str:
        F = tr.call("grammar", grammar.parse_poly, texts[0])
        G = tr.call("grammar", grammar.parse_poly, texts[1])
        X = tr.call("grammar", grammar.parse_element, texts[2])
        product = tr.call("bislice", bislice.star_mul, F, G)
        tr.add("bislice.coeff_products", len(f) * len(g))
        value = tr.call("bislice", product.eval, X)
        pointwise = tr.call("bislice", bislice.star_mul_pointwise, F, G, X)
        ok = _diff(value, pointwise) <= STAR_TOL * scale
        _format_all(tr, (*product.coeffs, value))
        return OK if ok else FAIL

    return op


# -- mult ----------------------------------------------------------------------


def mult(rng):
    x0 = rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0))
    y = rng.choice((0.5, 1.0, 1.5))
    factors = []
    for _ in range(rng.randint(2, 4)):
        i1, i2 = rng.choice(inputs.AXIS_UNITS), rng.choice(inputs.AXIS_UNITS)
        kind = rng.choice(("on", "on", "off"))
        if kind == "on" and factors and rng.random() < 0.5:
            # partner of the previous factor on one or both sides, which
            # makes that side divisible by the sphere's real quadratic
            prev_i1, prev_i2 = factors[-1][1]
            i1 = tuple(-c for c in prev_i1)
            if rng.random() < 0.5:
                i2 = tuple(-c for c in prev_i2)
        if kind == "on":
            factors.append((inputs.cone_element(x0, y, i1, i2), (i1, i2)))
        else:
            beta = y + rng.choice((-0.25, 0.25, 0.5))
            factors.append((inputs.cone_element(x0 + 0.25, beta, i1, i2), (i1, i2)))
    constants = [c for c, _ in factors]
    text = inputs.factored(constants)
    sphere_text = f"{x0},{y}"
    n = len(constants)
    scale = (1.0 + max(inputs.magnitude(c) for c in constants)) ** n

    def on_sphere(q: Quat) -> bool:
        return abs(q.re() - x0) <= MULT_TOL and abs(q.im_modulus() - y) <= MULT_TOL

    def op(tr) -> str:
        _, consts = tr.call("grammar", grammar.parse_factored, text)
        base = tr.call("grammar", grammar.parse_sphere, sphere_text)
        report = tr.call("zeros", zeros.multiplicities, consts, base)
        poly = tr.call("bislice", BiSlicePoly.from_factors, consts)
        tr.add("bislice.coeff_products", _convolution_terms([2] * n))
        fp, fq = tr.call("bislice", poly.split)
        ok = True
        for side, power, points in (
            (fp, report.p_spherical_power, report.p_points),
            (fq, report.q_spherical_power, report.q_points),
        ):
            ok &= 2 * power + len(points) <= n
            # The points are successive left roots: dividing out each in
            # turn leaves no remainder.
            rest = side
            for q in points:
                rest, remainder = tr.call("zeros", zeros.left_divide_linear, rest, q)
                ok &= on_sphere(q) and remainder.modulus() <= MULT_TOL * scale
            # A spherical factor makes the side vanish on the whole sphere.
            for u in _SAMPLE_UNITS[:2] if power else ():
                ok &= tr.call("bislice", side.eval, Quat(x0) + u * y).modulus() <= MULT_TOL * scale
        ok &= report.four_dimensional == 2 * (report.p_spherical_power + report.q_spherical_power)
        for q in report.p_points + report.q_points:
            tr.call("grammar", grammar.format_quat, q)
        return OK if ok else FAIL

    return op


# -- det -----------------------------------------------------------------------


def matrix_entries(rng) -> list[list[float]]:
    out = []
    for _ in range(4):
        if rng.random() < 0.5:
            i1, i2 = rng.choice(inputs.AXIS_UNITS), rng.choice(inputs.AXIS_UNITS)
            out.append(inputs.cone_element(inputs.dyadic(rng), inputs.dyadic(rng), i1, i2))
        else:
            out.append(inputs.dyadic_element(rng))
    return out


def det(rng):
    a, b = matrix_entries(rng), matrix_entries(rng)
    texts = inputs.matrix(a), inputs.matrix(b)
    sa = 1.0 + max(inputs.magnitude(e) for e in a)
    sb = 1.0 + max(inputs.magnitude(e) for e in b)
    tol = DET_TOL * (sa * sb) ** 4

    def op(tr) -> str:
        A = tr.call("grammar", grammar.parse_matrix, texts[0])
        B = tr.call("grammar", grammar.parse_matrix, texts[1])
        da = tr.call("qdet", qdet.det_both_sides, A)
        db = tr.call("qdet", qdet.det_both_sides, B)
        invertible = tr.call("qdet", qdet.is_right_invertible, A)
        AB = tr.call("qdet", qdet.matmul, A, B)
        dab = tr.call("qdet", qdet.det_both_sides, AB)
        # det(AB) = det(A) det(B) on each quaternionic side, compared
        # through the radicands so a near-singular factor is not amplified
        ok = all(abs(c * c - (x * y) ** 2) <= tol for c, x, y in zip(dab, da, db))
        if min(da) > 1e-6 * sa * sa:
            ok &= invertible
        _format_all(tr, AB.entries())
        return OK if ok else FAIL

    return op


# -- dbar and stem -------------------------------------------------------------


def cone_text(rng) -> tuple[str, float, float]:
    alpha = rng.uniform(-1.5, 1.5)
    beta = rng.uniform(0.25, 1.5)
    x = inputs.cone_element(alpha, beta, inputs.unit_imaginary(rng), inputs.unit_imaginary(rng))
    return inputs.positional(x), alpha, beta


def dbar(rng):
    poly = [inputs.dyadic_element(rng, 8) for _ in range(rng.randint(1, 3) + 1)]
    poly_text = inputs.coeff_list(poly)
    x_text, alpha, beta = cone_text(rng)
    scale = 1.0 + inputs.poly_bound(poly, 2.0 * math.hypot(alpha, beta) + 1.0)

    def op(tr) -> str:
        P = tr.call("grammar", grammar.parse_poly, poly_text)
        E = tr.call("grammar", grammar.parse_element, x_text)
        X = tr.call("qsplit", ConePoint.from_element, E)
        r_pair = tr.call("bislice", bislice.dbar_residual, P, X)
        r_single = tr.call("bislice", bislice.dbar_residual_single, P, X)
        ok = max(r_pair, r_single) <= DBAR_TOL * scale
        _format_all(tr, (E,))
        return OK if ok else FAIL

    return op


def stem_request(rng):
    poly = [inputs.dyadic_element(rng, 8) for _ in range(rng.randint(1, 3) + 1)]
    poly_text = inputs.coeff_list(poly)
    x_text, alpha, beta = cone_text(rng)
    scale = 1.0 + inputs.poly_bound(poly, 2.0 * math.hypot(alpha, beta) + 1.0)
    parity_seed = rng.randrange(1 << 30)

    def op(tr) -> str:
        P = tr.call("grammar", grammar.parse_poly, poly_text)
        E = tr.call("grammar", grammar.parse_element, x_text)
        X = tr.call("qsplit", ConePoint.from_element, E)
        S = tr.call("stem", stem.stem_from_poly, P)
        value = tr.call("stem", stem.induce, S, X)
        sph_value = tr.call("stem", stem.spherical_value, S, X)
        sph_deriv = tr.call("stem", stem.spherical_derivative, S, X)
        parity = tr.call("stem", stem.check_parity, S, PARITY_SAMPLES, seed=parity_seed)
        direct = tr.call("bislice", P.eval, X)
        # f(x) = spherical value + Im(x) * spherical derivative
        im = tr.call("clifford3", CliffordElement, (E.coeffs[0] - X.alpha, *E.coeffs[1:]))
        tr.add("clifford3.products")
        rebuilt = sph_value + tr.call("clifford3", clifford3.mul, im, sph_deriv)
        ok = (
            _diff(value, direct) <= STEM_TOL * scale
            and _diff(rebuilt, value) <= STEM_TOL * scale
            and parity.passed
        )
        _format_all(tr, (value,))
        return OK if ok else FAIL

    return op


# -- elem ----------------------------------------------------------------------


def _invertible_element(rng) -> list[float]:
    while True:
        c = inputs.dyadic_element(rng)
        p, q = _split(c)
        if inputs.magnitude(p) >= 0.25 and inputs.magnitude(q) >= 0.25:
            return c


def elem(rng):
    x = _invertible_element(rng)
    y = inputs.dyadic_element(rng)
    n = rng.randint(2, 5)
    texts = inputs.terms(x), inputs.terms(y)
    mx, my = inputs.magnitude(x), inputs.magnitude(y)
    px, qx = _split(x)
    # |x^-1| is at most the larger inverse component modulus times sqrt(2)
    mxi = 2.0 / min(inputs.magnitude(px), inputs.magnitude(qx))

    def op(tr) -> str:
        X = tr.call("grammar", grammar.parse_element, texts[0])
        Y = tr.call("grammar", grammar.parse_element, texts[1])
        sx = tr.call("qsplit", qsplit.split, X)
        sy = tr.call("qsplit", qsplit.split, Y)
        xy = tr.call("clifford3", clifford3.mul, X, Y)
        via_pair = tr.call(
            "qsplit",
            qsplit.join,
            tr.call("qsplit", sx.p.__mul__, sy.p),
            tr.call("qsplit", sx.q.__mul__, sy.q),
        )
        inv = tr.call("qsplit", qsplit.inverse, X)
        one = tr.call("clifford3", clifford3.mul, X, inv)
        powered = tr.call("qsplit", qsplit.power, X, n)
        repeated = X
        for _ in range(n - 1):
            repeated = tr.call("clifford3", clifford3.mul, repeated, X)
        tr.add("clifford3.products", n + 1)
        ok = (
            _diff(xy, via_pair) <= ELEM_TOL * 8.0 * (1.0 + mx * my)
            and _diff(one, _ONE) <= ELEM_TOL * 8.0 * (1.0 + mx * mxi)
            and _diff(powered, repeated) <= ELEM_TOL * 8.0 ** n * (1.0 + mx) ** n
        )
        _format_all(tr, (xy, powered))
        return OK if ok else FAIL

    return op


KINDS = {
    "roots": roots,
    "star": star,
    "mult": mult,
    "det": det,
    "dbar": dbar,
    "stem": stem_request,
    "elem": elem,
}


def block(rng: random.Random, ctx) -> list:
    """One block of (kind, operation) pairs; ``ctx`` is unused in-process."""
    kinds = [k for k, w in WEIGHTS.items() for _ in range(w)]
    rng.shuffle(kinds)
    return [(k, KINDS[k](rng)) for k in kinds]


def reference(ctx):
    """Calibration reference for this workload's timings."""
    return calibration.Loop()
