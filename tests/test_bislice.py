"""Polynomial star products, conjugates, representation formula, residuals."""

import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcone3 import (
    E0,
    E1,
    E2,
    E12,
    E13,
    E23,
    ZERO,
    BiSlicePoly,
    CliffordElement,
    ConePoint,
    Quat,
    QuatPoly,
    cone_point,
    dbar_residual,
    dbar_residual_single,
    join,
    regular_conjugate,
    representation_formula,
    sample_slice_values,
    split,
    splitting_projection,
    star_mul,
    star_mul_pointwise,
    symmetrization,
)
from qcone3.bislice import central_differences
from qcone3.cauchy import kernel_regularity_residual
from qcone3.errors import InvalidStep, NotInvertibleAtPoint, NotOrthogonal
from qcone3.clifford3 import Q12, Q13, Q23
from qcone3.stem import check_cauchy_riemann, stem_from_poly
from helpers import (
    assert_coeffs_close,
    clifford_conjugate,
    clifford_from_factors,
    clifford_star,
    coefficient_columns,
    complex_on_slice,
    quat_horner,
    quat_star,
    rand_cone_point,
    rand_element,
    rand_poly,
    rand_quat,
    rand_unit_imaginary,
    reassemble_splitting,
)


def test_split_poly_examples():
    fp, fq = BiSlicePoly([-E1, E0]).split()  # x - e1
    assert fp.coeffs[0].isclose(Q23) and fp.coeffs[1].isclose(Quat(1))
    assert fq.coeffs[0].isclose(-Q23) and fq.coeffs[1].isclose(Quat(1))
    fp, fq = BiSlicePoly([ZERO, E0]).split()  # x
    assert fp.coeffs[0].is_zero() and fq.coeffs[0].is_zero()
    fp, fq = BiSlicePoly([E12, ZERO, E0]).split()  # x^2 + e12
    assert fp.coeffs[0].isclose(Q12) and fq.coeffs[0].isclose(Q12)


def test_star_mul_examples():
    product = star_mul(BiSlicePoly([-E12, E0]), BiSlicePoly([-E23, E0]))
    assert product.coeffs[0].isclose(-E13)  # e12 * e23 = -e13
    assert product.coeffs[1].isclose(-(E12 + E23))
    assert product.coeffs[2].isclose(E0)

    P = rand_poly(random.Random(0), 3)
    unit = star_mul(P, BiSlicePoly([E0]))
    assert all(a.isclose(b) for a, b in zip(unit.coeffs, P.coeffs))


def test_star_mul_splits_componentwise():
    rng = random.Random(1)
    for _ in range(100):
        f = rand_poly(rng, rng.randint(0, 3))
        g = rand_poly(rng, rng.randint(0, 3))
        table = clifford_star(f.coeffs, g.coeffs)
        assert_coeffs_close(star_mul(f, g).coeffs, table, 1e-12)
        # the split of the table convolution is the star of the splits
        fp, fq = f.split()
        gp, gq = g.split()
        hp, hq = BiSlicePoly(table).split()
        want_p = fp.star(gp)
        want_q = fq.star(gq)
        for got, want in ((hp, want_p), (hq, want_q)):
            for a, b in zip(got.coeffs, want.coeffs):
                assert a.isclose(b, 1e-12 * (1 + b.modulus()))


def test_eval_examples():
    product = star_mul(BiSlicePoly([-E12, E0]), BiSlicePoly([-E23, E0]))
    assert product.eval(E12).is_zero(1e-12)
    c = 3 * E0 + E1 - 2 * E13
    assert BiSlicePoly([c]).eval(rand_element(random.Random(2))).isclose(c)
    assert BiSlicePoly.monomial(2).eval(ConePoint.from_element(E1)).isclose(-E0)


def test_eval_matches_clifford_horner():
    from qcone3 import power

    rng = random.Random(3)
    for _ in range(100):
        P = rand_poly(rng, 4)
        x = rand_element(rng)
        direct = ZERO
        for n, a in enumerate(P.coeffs):
            direct = direct + power(x, n) * a
        got = P.eval(x)
        assert got.isclose(direct, 1e-10 * (1 + direct.max_abs()))


def test_pointwise_star_equals_convolution():
    rng = random.Random(4)
    checked = 0
    for _ in range(300):
        f = rand_poly(rng, rng.randint(0, 3))
        g = rand_poly(rng, rng.randint(0, 3))
        x = rand_cone_point(rng)
        try:
            pointwise = star_mul_pointwise(f, g, x)
        except NotInvertibleAtPoint:
            continue
        convolution = star_mul(f, g).eval(x)
        scale = max(1.0, convolution.magnitude())
        assert (pointwise - convolution).magnitude() / scale < 1e-9
        checked += 1
    assert checked > 250


def test_pointwise_star_constant_cases():
    rng = random.Random(5)
    g = rand_poly(rng, 3)
    x = rand_cone_point(rng)
    # real scalar left factor commutes with the point
    f = BiSlicePoly([2.5 * E0])
    assert star_mul_pointwise(f, g, x).isclose(g.eval(x) * 2.5, 1e-10)
    # vanishing left factor kills the product
    root = rand_cone_point(rng)
    f0 = BiSlicePoly.from_factors([root.element])
    assert star_mul_pointwise(f0, g, root).is_zero(0.0)


def test_pointwise_star_singular_component_raises():
    # left factor value w+ * 2 has a vanishing second component
    f = BiSlicePoly([join(Quat(2.0), Quat(0.0))])
    g = BiSlicePoly([ZERO, E0])
    with pytest.raises(NotInvertibleAtPoint):
        star_mul_pointwise(f, g, ConePoint.from_element(E1))


def test_regular_conjugate():
    conj_poly = regular_conjugate(BiSlicePoly([-E1, E0]))
    assert conj_poly.coeffs[0].isclose(E1)
    real_poly = BiSlicePoly([2 * E0, -3 * E0, E0])
    back = regular_conjugate(real_poly)
    assert all(a.isclose(b) for a, b in zip(back.coeffs, real_poly.coeffs))
    rng = random.Random(6)
    P = rand_poly(rng, 3)
    assert_coeffs_close(regular_conjugate(P).coeffs, clifford_conjugate(P.coeffs), 1e-15)
    cp, cq = regular_conjugate(P).split()
    fp, fq = P.split()
    for got, src in ((cp, fp), (cq, fq)):
        for a, b in zip(got.coeffs, src.coeffs):
            assert a.isclose(b.conj(), 1e-14)


def test_symmetrization():
    sym = symmetrization(BiSlicePoly([-E1, E0]))  # (x - e1) -> x^2 + 1
    assert sym.coeffs[0].isclose(E0)
    assert sym.coeffs[1].is_zero(1e-14)
    assert sym.coeffs[2].isclose(E0)
    c = 2 * E0 + E23 - E2
    s = symmetrization(BiSlicePoly([c]))
    assert s.coeffs[0].isclose(c * c.conj())
    # split components are the quaternionic symmetrizations
    rng = random.Random(7)
    for _ in range(50):
        P = rand_poly(rng, 2)
        table = clifford_star(P.coeffs, clifford_conjugate(P.coeffs))
        assert_coeffs_close(symmetrization(P).coeffs, table, 1e-12)
        sp, sq = symmetrization(P).split()
        fp, fq = P.split()
        for got, side in ((sp, fp), (sq, fq)):
            want = side.symmetrization()
            for a, b in zip(got.coeffs, want.coeffs):
                assert a.isclose(b, 1e-11 * (1 + b.modulus()))


def test_degree_additivity_and_zero_divisor_drop():
    rng = random.Random(8)
    for _ in range(50):
        f = rand_poly(rng, rng.randint(1, 3))
        g = rand_poly(rng, rng.randint(1, 3))
        fp, fq = split(f.coeffs[f.degree()])
        gp, gq = split(g.coeffs[g.degree()])
        product_invertible = (
            min(fp.modulus(), fq.modulus()) > 1e-6
            and min(gp.modulus(), gq.modulus()) > 1e-6
        )
        if product_invertible:
            assert star_mul(f, g).degree() == f.degree() + g.degree()
    # annihilating leading coefficients drop the degree
    wplus = join(Quat(1.0), Quat(0.0))
    wminus = join(Quat(0.0), Quat(1.0))
    f = BiSlicePoly([E0, wplus])
    g = BiSlicePoly([E0, wminus])
    assert star_mul(f, g).degree() == 1


def test_from_factors_matches_table_expansion():
    rng = random.Random(16)
    for _ in range(50):
        constants = [rand_element(rng) for _ in range(rng.randint(0, 4))]
        lead = rng.uniform(-2.0, 2.0)
        got = BiSlicePoly.from_factors(constants, lead)
        assert_coeffs_close(got.coeffs, clifford_from_factors(constants, lead), 1e-12)
        assert got.degree() == len(constants)


def test_pair_is_the_working_form():
    rng = random.Random(17)
    coeffs = [rand_element(rng) for _ in range(3)]
    poly = BiSlicePoly(coeffs)
    # built from coefficients, the view is the caller's tuple, not a round trip
    assert poly.coeffs == tuple(coeffs)
    fp, fq = poly.split()
    assert poly.split() is poly.split()
    again = BiSlicePoly.from_pair(fp, fq)
    assert again.split()[0] is fp and again.split()[1] is fq
    assert_coeffs_close(again.coeffs, coeffs, 1e-15)
    assert abs(poly.max_coeff() - max(c.magnitude() for c in coeffs)) < 1e-14
    with pytest.raises(ValueError):
        BiSlicePoly.from_pair(fp, QuatPoly(fq.coeffs[:2]))
    # a coefficient is zero when both split components are within tol; all
    # eight coordinates within tol is not enough
    assert BiSlicePoly([E1, join(Quat(1.0), Quat(0.0))]).degree() == 1
    small = CliffordElement([0.9e-10] * 8)
    assert BiSlicePoly([E1, small]).degree() == 1
    assert BiSlicePoly([E1, small * 0.1]).degree() == 0


def test_max_coeff_is_finite_past_the_square_range():
    # |1e200 e1|^2 overflows; the magnitude itself is a float
    for scale in (1e200, 1e-200, 1.0):
        poly = BiSlicePoly([E1 * scale, (E1 + E2) * (0.5 * scale)])
        assert math.isclose(poly.max_coeff(), scale, rel_tol=1e-15)


def test_representation_formula_identity_and_real():
    rng = random.Random(9)
    x = rand_cone_point(rng)
    ident = BiSlicePoly([ZERO, E0])
    samples = sample_slice_values(ident, x, rand_unit_imaginary(rng), rand_unit_imaginary(rng))
    assert representation_formula(samples, x).isclose(x.element, 1e-12)
    real_pt = cone_point(2.5, 0.0, None, None)
    P = rand_poly(rng, 3)
    samples = sample_slice_values(P, real_pt, Q23, Q13)
    assert representation_formula(samples, real_pt).isclose(P.eval(real_pt), 1e-12)


def test_representation_formula_random():
    rng = random.Random(10)
    for _ in range(200):
        P = rand_poly(rng, 3)
        x = rand_cone_point(rng)
        samples = sample_slice_values(
            P, x, rand_unit_imaginary(rng), rand_unit_imaginary(rng)
        )
        got = representation_formula(samples, x)
        want = P.eval(x)
        assert (got - want).magnitude() <= 1e-10 * (1 + want.magnitude())


def test_monomial():
    assert BiSlicePoly.monomial(0).coeffs == (E0,)
    assert BiSlicePoly.monomial(2).coeffs == (ZERO, ZERO, E0)
    with pytest.raises(ValueError, match="monomial exponent must be nonnegative"):
        BiSlicePoly.monomial(-2)


def test_splitting_projection():
    rng = random.Random(11)
    for _ in range(50):
        F = QuatPoly([rand_quat(rng) for _ in range(4)])
        a, b = splitting_projection(F, Q23, Q13)
        for _ in range(20):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            lhs = F.eval(complex_on_slice(z, Q23))
            rhs = reassemble_splitting(a, b, Q23, Q13, z)
            assert (lhs - rhs).modulus() < 1e-12
    # coefficients already in the plane of i leave no k-part
    F = QuatPoly([Quat(1, 2, 0, 0), Quat(0, -1, 0, 0)])
    _, b = splitting_projection(F, Q23, Q13)
    assert all(abs(v) < 1e-14 for v in b)
    a, b = splitting_projection(QuatPoly([Q13]), Q23, Q13)
    assert abs(a[0]) < 1e-14 and abs(b[0] - 1) < 1e-14
    with pytest.raises(NotOrthogonal):
        splitting_projection(F, Q23, Q23)


def test_dbar_residual_polynomials():
    rng = random.Random(12)
    x = rand_cone_point(rng)
    assert dbar_residual(BiSlicePoly([ZERO, E0]), x, 1e-4) < 1e-8
    assert dbar_residual(BiSlicePoly.monomial(2), ConePoint.from_element(E1), 1e-4) < 1e-7
    for _ in range(50):
        P = rand_poly(rng, 5)
        pt = rand_cone_point(rng)
        h = 1e-3
        scale = sum(
            (n * (n - 1) * (n - 2)) * c.magnitude() * 2.0 ** max(n - 3, 0)
            for n, c in enumerate(P.coeffs)
        )
        assert dbar_residual(P, pt, h) <= 100 * h * h * (1 + scale)


def test_dbar_residual_nonregular_map():
    rng = random.Random(13)
    x = rand_cone_point(rng)
    residual = dbar_residual(lambda el: el.conj(), x, 1e-4)
    assert residual > 0.5


def test_dbar_operator_forms_agree():
    rng = random.Random(14)
    h = 1e-3
    for _ in range(100):
        P = rand_poly(rng, rng.randint(1, 5))
        x = rand_cone_point(rng)
        r1 = dbar_residual(P, x, h)
        r2 = dbar_residual_single(P, x, h)
        assert abs(r1 - r2) <= 10 * h * h


def test_dbar_second_order_decay():
    rng = random.Random(15)
    decays = 0
    for _ in range(50):
        P = rand_poly(rng, 5)
        x = rand_cone_point(rng)
        r1 = dbar_residual(P, x, 2e-3)
        r2 = dbar_residual(P, x, 1e-3)
        if r1 > 1e-9:  # above the rounding floor
            assert 2.0 < r1 / r2 < 8.0
            decays += 1
    assert decays > 30


def test_central_differences():
    du, dv = central_differences(lambda u, v: u * u * v, 1.0, 2.0, 1e-3)
    assert abs(du - 4.0) < 1e-9 and abs(dv - 1.0) < 1e-12


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf")])
def test_finite_difference_step_must_be_positive_and_finite(h):
    x = rand_cone_point(random.Random(18))
    P = BiSlicePoly.monomial(2)
    for call in (
        lambda: central_differences(lambda u, v: u, 0.0, 0.0, h),
        lambda: dbar_residual(P, x, h),
        lambda: dbar_residual_single(P, x, h),
        lambda: kernel_regularity_residual(cone_point(3.0, 0.0, None, None), x, h),
        lambda: check_cauchy_riemann(stem_from_poly(BiSlicePoly.monomial(1)), h, samples=1),
    ):
        with pytest.raises(InvalidStep, match="step"):
            call()


def _least_moving_step(u: float, v: float) -> float:
    """The least h > 0 with u + h, u - h, v + h and v - h all different from
    u or v, by bisection over the positive floats (moving is monotone in h)."""

    def moves(h: float) -> bool:
        return all(x + h != x and x - h != x for x in (u, v))

    lo, hi = 0, struct.unpack("<q", struct.pack("<d", 1e300))[0]  # the bits of h
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if moves(struct.unpack("<d", struct.pack("<q", mid))[0]):
            hi = mid
        else:
            lo = mid
    return struct.unpack("<d", struct.pack("<q", hi))[0]


@pytest.mark.parametrize(
    "u, v",
    # below 0 the spacing toward -inf is the wider one, so u - h or v - h decides
    [(0.0, 0.5), (1.0, 3.0), (-1.0, 0.0), (0.0, -0.5), (-2.5, 1e10), (1e-300, 0.0), (0.75, -1e300)],
)
def test_step_too_small_to_move_the_point_is_refused(u, v):
    # At 0.5, 0.5 + 1e-17 == 0.5, so the difference along v read 0.  The least
    # step that moves both coordinates both ways is accepted, one ulp below it
    # is refused.
    least = _least_moving_step(u, v)
    f = lambda a, b: a * a + 3.0 * b  # noqa: E731
    central_differences(f, u, v, least)
    central_differences(f, u, v, math.nextafter(least, math.inf))
    with pytest.raises(InvalidStep, match="does not move the point"):
        central_differences(f, u, v, math.nextafter(least, 0.0))


# -- the float kernels against the operator form, bit for bit -----------------------

_NEG_ZERO = Quat(-0.0, -0.0, -0.0, -0.0)


def _reals(scale: float):
    # hypothesis draws 0.0 and -0.0 among the floats of a range across zero
    return st.floats(min_value=-10.0, max_value=10.0).map(lambda v: v * scale)


def _quats(scale: float):
    part = _reals(scale)
    return st.one_of(st.sampled_from((Quat(), _NEG_ZERO)), st.builds(Quat, part, part, part, part))


# Degrees 0-8, all coefficients of one polynomial at one scale 1e-150..1e149.
_poly_coeffs = st.integers(min_value=-150, max_value=149).flatmap(
    lambda k: st.lists(_quats(10.0**k), min_size=1, max_size=9)
)
_point_scale = st.integers(min_value=-3, max_value=3).map(lambda k: 10.0**k)


def _bits(quats) -> str:
    # repr tells -0.0 from 0.0
    return repr(tuple(quats))


_scalar = _point_scale.flatmap(_reals)


@given(_poly_coeffs, _poly_coeffs, _point_scale.flatmap(_quats), _scalar, _scalar)
@example([Quat(1.0), _NEG_ZERO], [Quat(1.0)], Quat(-0.0, 0.0, -0.0, 0.0), -0.0, 0.0)
@example([_NEG_ZERO, Quat(1.0)], [Quat(math.inf)], Quat(1.0), 1.0, 1.0)  # 0 * inf skipped
@settings(max_examples=300, deadline=None)
def test_kernels_are_the_operator_form_bit_for_bit(f, g, p, alpha, beta):
    assert _bits([QuatPoly(f).eval(p)]) == _bits([quat_horner(f, p)])
    assert _bits(QuatPoly(f).star(QuatPoly(g)).coeffs) == _bits(quat_star(f, g))
    fq = [a.conj() for a in reversed(f)]
    stem = stem_from_poly(BiSlicePoly.from_pair(QuatPoly(f), QuatPoly(fq)))
    # The stem is plain complex Horner in z = alpha + i beta per real
    # coefficient column, from the leading coefficient as a complex.
    z = complex(alpha, beta)
    want = []
    for side in (f, fq):
        values = []
        for column in coefficient_columns(QuatPoly(side)):
            w = complex(column[0])
            for c in column[1:]:
                w = w * z + c
            values.append(w)
        want += [Quat(*(w.real for w in values)), Quat(*(w.imag for w in values))]
    assert _bits(stem.components(alpha, beta)) == _bits(want)


def test_library_polynomials_hold_quat_tuples():
    rng = random.Random(24)
    f = QuatPoly([rand_quat(rng) for _ in range(3)])
    for poly in (
        f.star(f),
        f.scale(2),
        f.conj_coeffs(),
        QuatPoly.from_factors([rand_quat(rng), rand_quat(rng)]),
        *rand_poly(rng, 2).split(),
    ):
        assert type(poly.coeffs) is tuple
        assert all(type(c) is Quat for c in poly.coeffs)
