"""Acceptance suite: one test per criterion, each printing a PASS line.

A few quoted worked-example values do not satisfy the polynomials they are
quoted for; those literal values are pinned in strict xfail tests at the
bottom so the discrepancy stays visible, while the verifying values computed
by the classification engine are asserted green.  Everything else runs at
the stated tolerances.
"""

import math
import random
import time

import pytest

from qcone3 import (
    E0,
    E1,
    E2,
    E3,
    E12,
    E13,
    E23,
    BiSlicePoly,
    ConePoint,
    Matrix2,
    Quat,
    SliceContour,
    SphereDescriptor,
    classify_quadratic,
    classify_split,
    cone_point,
    conj,
    contour_integral_vanishes,
    dbar_residual,
    dbar_residual_single,
    det,
    det_both_sides,
    in_cone,
    join,
    matmul,
    multiplicities,
    mul,
    norm_n,
    power,
    representation_formula,
    sample_slice_values,
    split,
    star_mul,
    star_mul_pointwise,
    verify_zeros,
)
from qcone3.cauchy import cauchy_kernel_quat
from qcone3.errors import NotInvertibleAtPoint
from qcone3.clifford3 import Q12, Q13, Q23
from qcone3.qsplit import cone_residuals
from helpers import (
    contour_phase,
    contour_point,
    multiplicity_total,
    rand_cone_element,
    rand_cone_point,
    rand_element,
    rand_poly,
    rand_unit_imaginary,
    thetas,
)

UNITS = [Q23, -Q23, Q13, Q12]
for _mix in ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, -1, 2), (2, 1, -1), (1, 1, 1)):
    _v = Quat(0.0, *_mix)
    UNITS.append(_v / _v.modulus())


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


# -- criterion 1: determinant worked example ----------------------------------------


def test_acceptance_1_determinant_example():
    matrix = Matrix2(E1, E2 + E23, -E0, E2)
    d1, d2 = det_both_sides(matrix)
    assert abs(d1 - math.sqrt(3)) < 1e-12
    assert abs(d2 - math.sqrt(3)) < 1e-12

    det(matrix)  # warm-up
    best = min(
        _timed(lambda: det(Matrix2(E1, E2 + E23, -E0, E2))) for _ in range(5)
    )
    assert best < 1e-3, f"determinant took {best * 1e3:.3f} ms"
    _report(1, f"det = sqrt(3) on both sides, {best * 1e6:.1f} us per call")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# -- criterion 2: splitting worked examples -----------------------------------------


def test_acceptance_2_splitting_examples():
    p, q = split(E1)
    assert p == -Q23 and q == Q23
    p, q = split(E12)
    assert p == Q12 and q == Q12
    p, q = split(E2 + E23)
    assert p == Q13 + Q23
    # the printed second component e13 - e23 does not satisfy
    # x = w+ p + w- q (see the xfail below); the solving value is its negative
    assert q == Q23 - Q13
    assert join(p, q).isclose(E2 + E23, 0.0)
    _report(2, "split(e1), split(e12), split(e2+e23) exact")


# -- criterion 3: zero classification worked examples -------------------------------


def test_acceptance_3_zero_classification_examples():
    results = []

    # sphere pair, same sphere: x^2 + 1, printed via its split system
    # (p + e23)*(p - e23) = 0, (q + e23)*(q - e23) = 0
    zs = classify_quadratic(E1, -E1)
    assert zs.case == "1.1"
    assert abs(zs.side_p.sphere.radius - 1) < 1e-14
    assert abs(zs.side_q.sphere.radius - 1) < 1e-14
    assert verify_zeros(BiSlicePoly.from_factors([E1, -E1]), zs, UNITS) < 1e-9
    results.append("1.1")

    # sphere pair, different spheres, from the printed split system
    # (p + e23)*(p - e23) = 0, (q - 2e23)*(q + 2e23) = 0
    zs = classify_split(-Q23, Q23, 2 * Q23, -2 * Q23)
    assert zs.case == "1.2"
    assert abs(zs.side_p.sphere.radius - 1) < 1e-14
    assert abs(zs.side_q.sphere.radius - 2) < 1e-14
    poly = BiSlicePoly.from_factors([join(-Q23, 2 * Q23), join(Q23, -2 * Q23)])
    assert verify_zeros(poly, zs, UNITS) < 1e-9
    results.append("1.2")

    # sphere and point: (x - e1)*(x - e23)
    zs = classify_quadratic(E1, E23)
    assert zs.case == "2"
    assert zs.side_q.points[0].isclose(Q23)
    assert verify_zeros(BiSlicePoly.from_factors([E1, E23]), zs, UNITS) < 1e-9
    results.append("2")

    # sphere and point pair: (x - 2e23)*(x + e23 - 2e13 - e1 + 2e2)
    beta = -E23 + 2 * E13 + E1 - 2 * E2
    zs = classify_quadratic(2 * E23, beta)
    assert zs.case == "3"
    assert abs(zs.side_p.sphere.radius - 2) < 1e-14
    assert zs.side_q.points[0].isclose(2 * Q23)
    assert zs.side_q.points[1].isclose((4 * Q23 + 3 * Q13) * (4 / 5), 1e-12)
    assert verify_zeros(BiSlicePoly.from_factors([2 * E23, beta]), zs, UNITS) < 1e-9
    results.append("3")

    # four isolated pairs: (x - 2e23 + e1)*(x - 4e13 - 2e2)
    alpha = 2 * E23 - E1
    beta = 4 * E13 + 2 * E2
    zs = classify_quadratic(alpha, beta)
    assert zs.case == "4" and len(zs.pairs) == 4
    assert zs.side_p.points[0].isclose(3 * Q23)
    assert zs.side_q.points[0].isclose(Q23)
    joined = [join(pp, qq) for pp, qq in zs.pairs]
    assert any(x.isclose(join(3 * Q23, Q23), 1e-12) for x in joined)
    assert verify_zeros(BiSlicePoly.from_factors([alpha, beta]), zs, UNITS) < 1e-9
    results.append("4")

    # single pair: (x - e12)*(x - e23)
    zs = classify_quadratic(E12, E23)
    assert zs.case == "5"
    assert join(zs.pairs[0][0], zs.pairs[0][1]).isclose(E12)
    assert verify_zeros(BiSlicePoly.from_factors([E12, E23]), zs, UNITS) < 1e-9
    results.append("5")

    # point with a point pair: (x - e12 - e13 + e3 + e2)*(x - e12 - 2e13 + e3 + 2e2)
    alpha = E12 + E13 - E3 - E2
    beta = E12 + 2 * E13 - E3 - 2 * E2
    zs = classify_quadratic(alpha, beta)
    assert zs.case == "6" and len(zs.pairs) == 2
    assert zs.side_p.points[0].isclose(2 * Q12)
    assert zs.side_q.points[0].isclose(2 * Q13)
    assert zs.side_q.points[1].isclose(4 * Q13)
    assert verify_zeros(BiSlicePoly.from_factors([alpha, beta]), zs, UNITS) < 1e-9
    results.append("6")

    _report(3, f"seven worked zero sets verified to < 1e-9 (cases {', '.join(results)})")


# -- criterion 4: multiplicity examples and the degree sum law ----------------------


def test_acceptance_4_multiplicities():
    base = SphereDescriptor(0.0, 1.0)
    squared_factor = (E1 - E3 + E12 + E23) * 0.5  # splits to (e12 | e23)
    figures = []
    for factors, expected in (
        ([squared_factor, squared_factor], (0, 4, 2, 2)),
        ([E1, -E1], (4, 0, 2, 2)),
        ([E1, E23], (2, 2, 4, 0)),
    ):
        report = multiplicities(factors, base)
        got = (
            report.four_dimensional,
            report.isolated,
            report.first_kind,
            report.second_kind,
        )
        assert got == expected, (got, expected)
        figures.append(got)

    rng = random.Random(404)
    for _ in range(200):
        degree = rng.randint(1, 4)
        factors = []
        for _ in range(degree):
            roll = rng.random()
            if factors and roll < 0.25:
                factors.append(factors[-1].conj())
            elif factors and roll < 0.4:
                factors.append(factors[-1])
            else:
                factors.append(rand_cone_element(rng))
        p_constants = [split(c).p for c in factors]
        q_constants = [split(c).q for c in factors]
        assert multiplicity_total(p_constants) == degree
        assert multiplicity_total(q_constants) == degree
    _report(4, f"three multiplicity reports {figures}, sum law on 200 random inputs")


# -- criterion 5: bulk property suite ------------------------------------------------

TRIALS = 10_000


def test_acceptance_5_property_suite():
    start = time.perf_counter()
    rng = random.Random(5050)

    worst_round_trip = 0.0
    for _ in range(TRIALS):
        x = rand_element(rng, 2.0)
        y = join(split(x))
        worst_round_trip = max(
            worst_round_trip,
            max(abs(a - b) for a, b in zip(x.coeffs, y.coeffs)),
        )
    assert worst_round_trip < 1e-12

    worst_norm = 0.0
    for _ in range(TRIALS):
        x = rand_cone_element(rng)
        y = rand_cone_element(rng)
        lhs = norm_n(mul(x, y))
        rhs = mul(norm_n(x), norm_n(y))
        scale = 1.0 + rhs.max_abs()
        worst_norm = max(
            worst_norm,
            max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs)) / scale,
        )
    assert worst_norm < 1e-12

    for _ in range(TRIALS):
        if rng.random() < 0.5:
            x = rand_cone_element(rng)
            expect = True
        else:
            x = rand_element(rng)
            r1, r2 = cone_residuals(x)
            if abs(r1) < 1e-6 and abs(r2) < 1e-6:
                continue  # do not assert near the predicate boundary
            expect = False
        p, q = split(x)
        component_form = (
            abs(p.re() - q.re()) <= 1e-10
            and abs(p.im_modulus() - q.im_modulus()) <= 1e-10
        )
        assert in_cone(x, 1e-10) == component_form == expect

    for _ in range(TRIALS):
        x = rand_element(rng)
        y = rand_element(rng)
        lhs = conj(mul(x, y))
        rhs = mul(conj(y), conj(x))
        scale = 1.0 + rhs.max_abs()
        assert all(
            abs(a - b) <= 1e-12 * scale for a, b in zip(lhs.coeffs, rhs.coeffs)
        )

    for _ in range(TRIALS):
        x = rand_element(rng, 1.5)
        n = rng.randint(0, 8)
        direct = E0
        for _ in range(n):
            direct = mul(direct, x)
        scale = 1.0 + direct.max_abs()
        assert power(x, n).isclose(direct, 1e-12 * scale)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"property suite took {elapsed:.1f} s"
    _report(5, f"5 x {TRIALS} trials in {elapsed:.1f} s, worst errors "
               f"{worst_round_trip:.2e} / {worst_norm:.2e}")


# -- criterion 6: star-product consistency ------------------------------------------


def test_acceptance_6_star_product_consistency():
    rng = random.Random(606)
    checked = 0
    worst = 0.0
    while checked < 1000:
        f = rand_poly(rng, rng.randint(0, 3))
        g = rand_poly(rng, rng.randint(0, 3))
        x = rand_cone_point(rng)
        try:
            pointwise = star_mul_pointwise(f, g, x)
        except NotInvertibleAtPoint:
            continue
        convolution = star_mul(f, g).eval(x)
        scale = max(1.0, convolution.magnitude())
        worst = max(worst, (pointwise - convolution).magnitude() / scale)
        checked += 1
    assert worst < 1e-9
    _report(6, f"1000 pointwise/convolution agreements, worst {worst:.2e}")


# -- criterion 7: Cauchy reconstruction ----------------------------------------------

MAX_MONOMIAL_DEGREE = 5
RADIUS = 2.0


def _monomial_errors(point: ConePoint, nodes: int) -> list[float]:
    """Reconstruction error for each monomial degree at one point.

    Kernel and measure are shared across degrees, the integrand picks up one
    extra power of the node per degree.
    """
    values = [
        [Quat(), Quat()] for _ in range(MAX_MONOMIAL_DEGREE + 1)
    ]
    for side, target, unit in ((0, point.p, point.i1), (1, point.q, point.i2)):
        contour = SliceContour(0.0, RADIUS, unit, nodes)
        for theta in thetas(contour):
            s = contour_point(contour, theta)
            lead = cauchy_kernel_quat(s, target) * contour_phase(contour, theta)
            s_power = Quat(1.0)
            for degree in range(MAX_MONOMIAL_DEGREE + 1):
                values[degree][side] = values[degree][side] + lead * s_power
                s_power = s_power * s
    errors = []
    for degree in range(MAX_MONOMIAL_DEGREE + 1):
        got = join(values[degree][0] / nodes, values[degree][1] / nodes)
        want = power(point.element, degree)
        errors.append((got - want).magnitude())
    return errors


def test_acceptance_7_cauchy_reconstruction():
    rng = random.Random(707)
    points = []
    for _ in range(100):
        # distance from the contour center between 0.5 and 0.93 of the
        # radius keeps the coarse-grid error measurable above rounding
        dist = rng.uniform(0.5, 0.93) * RADIUS
        angle = rng.uniform(0.15, math.pi - 0.15)
        points.append(
            cone_point(
                dist * math.cos(angle),
                dist * math.sin(angle),
                rand_unit_imaginary(rng),
                rand_unit_imaginary(rng),
            )
        )
    worst_fine = [0.0] * (MAX_MONOMIAL_DEGREE + 1)
    worst_coarse = [0.0] * (MAX_MONOMIAL_DEGREE + 1)
    for point in points:
        fine = _monomial_errors(point, 512)
        coarse = _monomial_errors(point, 256)
        for d in range(MAX_MONOMIAL_DEGREE + 1):
            worst_fine[d] = max(worst_fine[d], fine[d])
            worst_coarse[d] = max(worst_coarse[d], coarse[d])
    assert max(worst_fine) < 1e-6
    for d in range(MAX_MONOMIAL_DEGREE + 1):
        assert worst_coarse[d] >= 10 * worst_fine[d], (
            d,
            worst_coarse[d],
            worst_fine[d],
        )

    worst_vanish = 0.0
    for _ in range(20):
        poly = rand_poly(rng, rng.randint(0, 5))
        ci = SliceContour(0.0, RADIUS, rand_unit_imaginary(rng), 512)
        cj = SliceContour(0.0, RADIUS, rand_unit_imaginary(rng), 512)
        mi, mj = contour_integral_vanishes(poly, ci, cj)
        fp, fq = poly.split()
        bound_scale = 1.0 + max(
            max(fp.eval(contour_point(ci, t)).modulus() for t in thetas(ci)[:16]),
            max(fq.eval(contour_point(cj, t)).modulus() for t in thetas(cj)[:16]),
        )
        worst_vanish = max(worst_vanish, max(mi, mj) / bound_scale)
    assert worst_vanish < 1e-8
    _report(
        7,
        f"monomials <= {MAX_MONOMIAL_DEGREE} at 100 points: worst {max(worst_fine):.2e} "
        f"at 512 nodes, coarse/fine >= 10x, closed integrals {worst_vanish:.2e}",
    )


# -- criterion 8: representation formula ---------------------------------------------


def test_acceptance_8_representation_formula():
    rng = random.Random(808)
    worst = 0.0
    for _ in range(100):
        poly = rand_poly(rng, rng.randint(0, 3))
        x = rand_cone_point(rng)
        samples = sample_slice_values(
            poly, x, rand_unit_imaginary(rng), rand_unit_imaginary(rng)
        )
        got = representation_formula(samples, x)
        want = poly.eval(x)
        worst = max(worst, (got - want).magnitude() / (1 + want.magnitude()))
    assert worst < 1e-10
    _report(8, f"100 two-slice reconstructions, worst {worst:.2e}")


# -- criterion 9: regularity-operator equivalence ------------------------------------


def test_acceptance_9_operator_equivalence():
    rng = random.Random(909)
    h = 1e-3
    decays = 0
    attempts = 0
    for _ in range(100):
        poly = rand_poly(rng, rng.randint(3, 5))
        x = rand_cone_point(rng)
        r_pair = dbar_residual(poly, x, h)
        r_single = dbar_residual_single(poly, x, h)
        assert abs(r_pair - r_single) <= 10 * h * h
        scale = sum(
            n * (n - 1) * (n - 2) * c.magnitude() * 2.0 ** max(n - 3, 0)
            for n, c in enumerate(poly.coeffs)
        )
        assert r_pair <= 100 * h * h * (1 + scale)
        half = dbar_residual(poly, x, h / 2)
        if r_pair > 1e-9:
            attempts += 1
            if 2.5 < r_pair / half < 6.5:
                decays += 1
    assert attempts >= 80 and decays >= 0.9 * attempts
    _report(9, f"operator forms agree; {decays}/{attempts} clean h->h/2 decays near 4x")


# -- criterion 10: determinant properties --------------------------------------------


def test_acceptance_10_binet_and_norm_equalities():
    rng = random.Random(1010)
    worst_binet = 0.0
    worst_norms = 0.0
    for _ in range(1000):
        a = Matrix2(*(rand_cone_element(rng) for _ in range(4)))
        b = Matrix2(*(rand_cone_element(rng) for _ in range(4)))
        da = det(a)
        db = det(b)
        dab = det(matmul(a, b))
        worst_binet = max(worst_binet, abs(dab - da * db) / max(1.0, da * db))
        (qa, qb), (qc, qd) = a.tilde
        if min(v.modulus() for v in (qa, qb, qc, qd)) > 1e-3:
            expected = da * da
            for value in (
                (qa * (qd - qc * qa.inverse() * qb)).modulus_sq(),
                (qb * (qc - qd * qb.inverse() * qa)).modulus_sq(),
                (qc * (qb - qa * qc.inverse() * qd)).modulus_sq(),
                (qd * (qa - qb * qd.inverse() * qc)).modulus_sq(),
            ):
                worst_norms = max(
                    worst_norms, abs(value - expected) / max(1.0, expected)
                )
    assert worst_binet < 1e-9
    assert worst_norms < 1e-9
    _report(10, f"Binet worst {worst_binet:.2e}, norm equalities worst {worst_norms:.2e}")


# -- quoted worked-example values that fail their own polynomials --------------------

_CASE4_POLY = BiSlicePoly.from_factors([2 * E23 - E1, 4 * E13 + 2 * E2])
_CASE6_POLY = BiSlicePoly.from_factors(
    [E12 + E13 - E3 - E2, E12 + 2 * E13 - E3 - 2 * E2]
)


@pytest.mark.xfail(
    strict=True,
    reason="quoted value does not satisfy the polynomial it is quoted for; "
    "the classification engine's verifying value is asserted in criterion 3",
)
@pytest.mark.parametrize(
    "poly, side, value",
    [
        # four-point example, quoted second roots of either side
        (_CASE4_POLY, 0, (3 * Q13 - Q23) * (4 / 3)),
        (_CASE4_POLY, 1, (7 * Q13 - 6 * Q23) * (3 / 5)),
        # point/pair example, quoted second root with flipped sign
        (_CASE6_POLY, 1, -4 * Q13),
    ],
    ids=["case4-p-side", "case4-q-side", "case6-q-side"],
)
def test_quoted_example_roots(poly, side, value):
    component = poly.split()[side]
    assert component.eval(value).modulus() < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="quoted second split component of e2 + e23 has the wrong sign: "
    "w+(e13+e23) + w-(e13-e23) equals e13 - e1, not e2 + e23",
)
def test_quoted_split_display():
    assert join(Q13 + Q23, Q13 - Q23).isclose(E2 + E23)


@pytest.mark.xfail(
    strict=True,
    reason="the quoted factorizations (x-e1)*(x-e1) and (x-e1)*(x-2e1) do not "
    "split to the systems quoted next to them; classification of the literal "
    "polynomials yields isolated points, not sphere pairs",
)
@pytest.mark.parametrize(
    "alpha, beta, case",
    [(E1, E1, "1.1"), (E1, 2 * E1, "1.2")],
    ids=["repeated-factor", "scaled-factor"],
)
def test_quoted_sphere_pair_inputs(alpha, beta, case):
    assert classify_quadratic(alpha, beta).case == case
