"""The one zero test, ``negligible``, and the decisions that go through it, at
every scale.

Each decision is checked at its threshold and just either side of it.  The
thresholds are exact with a power-of-two tolerance and dyadic inputs, so
scaling by 2^k (k = -1000 ... 1000) must not move any answer by a single
case.  Scaling by 10^e (e = -40 ... 40) rounds the inputs, so there the
inputs sit a relative 1e-6 inside or outside the threshold.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcone3 import (
    E0,
    ZERO,
    BiSlicePoly,
    CliffordElement,
    ConePoint,
    Matrix2,
    Quat,
    SphereDescriptor,
    cauchy_kernel_quat,
    in_cone,
    is_right_invertible,
    star_mul_pointwise,
)
from qcone3.clifford3 import E1, E2, E3, E23, E123, negligible
from qcone3.errors import OnSingularSphere, SingularElement
from qcone3.qsplit import cone_residuals
from qcone3.zeros import sphere_chain
from helpers import rand_cone_element

#: A tolerance whose thresholds are exact in binary.
TOL = 2.0**-20
POWERS = st.integers(-1000, 1000)
TENS = st.floats(-40.0, 40.0).map(lambda e: 10.0**e)
#: (offset from the threshold, accepted): at it, one ulp past, one ulp inside.
EDGES = ((0, True), (1, False), (-1, True))


def _ulps(x: float, n: int) -> float:
    return x if n == 0 else math.nextafter(x, math.inf if n > 0 else 0.0)


@given(st.integers(-500, 500), st.sampled_from((1, 2)))
@example(500, 2)
@example(-500, 2)
def test_negligible_is_exact_at_its_threshold(k, degree):
    scale = math.ldexp(1.0, k)
    bound = math.ldexp(TOL, k * degree)
    for n, accepted in EDGES:
        assert negligible(_ulps(bound, n), scale, degree, TOL) == accepted
        assert negligible(-_ulps(bound, n), scale, degree, TOL) == accepted


def test_negligible_edges():
    # a zero scale accepts only an exact zero
    assert negligible(0.0, 0.0) and negligible(-0.0, 0.0, 2)
    assert not negligible(5e-324, 0.0)
    # the bound saturates instead of raising; inf and nan are never negligible
    assert negligible(1e300, 1e300, 2)
    assert not negligible(math.inf, math.inf)
    assert not negligible(math.nan, 1.0) and not negligible(0.0, math.nan)
    assert not negligible(1e-300, 1e-200, 2)


_DYADIC_QUATS = st.tuples(*[st.integers(-12, 12)] * 4).filter(any).map(
    lambda t: Quat(*(n / 8.0 for n in t))
)


@settings(deadline=None)
@given(_DYADIC_QUATS, POWERS, TENS)
@example(Quat(1.0), 1000, 1e40)
@example(Quat(0.125, 1.5), -1000, 1e-40)
def test_quat_inverse_works_at_every_nonzero_scale(q, k, t):
    # q * 2^k and its inverse stay normal floats, so the inverse scales exactly
    big = Quat(*(math.ldexp(x, k) for x in q))
    assert big.inverse() == Quat(*(math.ldexp(x, -k) for x in q.inverse()))
    assert ((q * t).inverse() * (q * t)).isclose(1.0, 1e-14)


@settings(deadline=None)
@given(_DYADIC_QUATS, _DYADIC_QUATS, POWERS)
@example(Quat(0.0, 1.0), Quat(1.5), 665)  # <1e200>e23-sized inputs
@example(Quat(0.0, 1.0), Quat(1.5), -665)
def test_moduli_scale_exactly_at_every_scale(q, r, k):
    # degree 1: |2^k q| = 2^k |q| bit for bit, though |2^k q|^2 leaves the range
    big = Quat(*(math.ldexp(x, k) for x in q))
    assert big.modulus() == math.ldexp(q.modulus(), k)
    assert big.im_modulus() == math.ldexp(q.im_modulus(), k)
    x = CliffordElement((*q, *r))
    assert _element(dict(enumerate(x.coeffs)), k).magnitude() == math.ldexp(x.magnitude(), k)


def test_quat_inverse_fails_only_at_zero():
    assert math.isclose(Quat(1e-11).inverse().w, 1e11, rel_tol=1e-15)
    assert Quat(5e-324).inverse().w == math.inf  # 2^1074 is past the float max
    with pytest.raises(SingularElement):
        Quat(0.0, -0.0).inverse()


def _element(coeffs: dict, k: int, t: float = 1.0) -> CliffordElement:
    c = [0.0] * 8
    for i, v in coeffs.items():
        c[i] = math.ldexp(v, k) * t
    return CliffordElement(c)


@settings(deadline=None)
@given(POWERS)
@example(1000)
@example(-1000)
def test_cone_membership_at_its_threshold_under_powers_of_two(k):
    for n, accepted in EDGES:
        d = _ulps(TOL, n)
        # e1 + d e123: the residual x123 = d against max|x_i| = 1;
        # e1 + d e23: the quadratic residual -d against max|x_im|^2 = 1
        for coeffs in ({1: 1.0, 7: d}, {1: 1.0, 6: d}):
            x = _element(coeffs, k)
            assert in_cone(x, TOL) == accepted
            if accepted:  # what in_cone accepts builds a ConePoint
                point = ConePoint.from_element(x, TOL)
                assert math.isclose(point.beta, math.ldexp(1.0, k), rel_tol=1e-15)


@settings(deadline=None)
@given(POWERS, st.lists(st.integers(-64, 64), min_size=8, max_size=8))
@example(1000, [0, 0, 0, 64, -1, 0, 0, 0])
@example(-1000, [1, 0, 0, 0, 0, 0, 64, 1])
def test_cone_residuals_have_degree_zero(k, eighths):
    # The record cone-check writes is the pair in_cone holds to tol, and
    # 2^k x gives the same two floats, past the range of x3 x12 too.
    x = _element({i: v / 8.0 for i, v in enumerate(eighths)}, 0)
    y = _element({i: v / 8.0 for i, v in enumerate(eighths)}, k)
    r1, r2 = cone_residuals(y)
    assert (r1, r2) == cone_residuals(x)
    assert in_cone(y, TOL) == (abs(r1) <= TOL and abs(r2) <= TOL)


@given(TENS, st.sampled_from((1.0 - 1e-6, 1.0 + 1e-6)))
@example(1e40, 1.0 - 1e-6)
@example(1e-40, 1.0 + 1e-6)
def test_cone_membership_beside_its_threshold_under_powers_of_ten(t, factor):
    for coeffs in ({1: 1.0, 7: TOL * factor}, {1: 1.0, 6: TOL * factor}):
        x = _element(coeffs, 0, t)
        assert in_cone(x, TOL) == (factor < 1.0)
        if factor < 1.0:
            ConePoint.from_element(x, TOL)


def _chain_counts(base: SphereDescriptor, constants, k: int, t: float = 1.0):
    def scaled(v: float) -> float:
        return math.ldexp(v, k) * t

    power, chain = sphere_chain(
        [Quat(*map(scaled, c)) for c in constants],
        SphereDescriptor(scaled(base.center), scaled(base.radius)),
        TOL,
    )
    return power, len(chain)


@settings(deadline=None)
@given(POWERS)
@example(1000)
@example(-1000)
def test_sphere_chain_counts_at_their_threshold_under_powers_of_two(k):
    conj_pair = (Quat(0.0, 1.0), Quat(0.0, -1.0))
    for n, accepted in EDGES:
        d = _ulps(TOL, n)
        # the conjugate pair on the sphere (0, 1) is on the base (d, 1) exactly
        # when d is negligible beside the radius 1
        assert _chain_counts(SphereDescriptor(d, 1.0), conj_pair, k) == (
            (1, 0) if accepted else (0, 0)
        )
        # a radius negligible beside the center 1 makes the base the real point 1
        assert _chain_counts(SphereDescriptor(1.0, d), (Quat(1.0),), k) == (
            (0, 1) if accepted else (0, 0)
        )


@given(TENS, st.sampled_from((1.0 - 1e-6, 1.0 + 1e-6)))
@example(1e40, 1.0 + 1e-6)
@example(1e-40, 1.0 - 1e-6)
def test_sphere_chain_counts_beside_their_threshold_under_powers_of_ten(t, factor):
    d, inside = TOL * factor, factor < 1.0
    conj_pair = (Quat(0.0, 1.0), Quat(0.0, -1.0))
    assert _chain_counts(SphereDescriptor(d, 1.0), conj_pair, 0, t) == (
        (1, 0) if inside else (0, 0)
    )
    assert _chain_counts(SphereDescriptor(1.0, d), (Quat(1.0),), 0, t) == (
        (0, 1) if inside else (0, 0)
    )


def _diag(a: float, d: float) -> Matrix2:
    return Matrix2(a * E0, ZERO, ZERO, d * E0)


@settings(deadline=None)
@given(POWERS, st.integers(0, 2**32 - 1))
@example(1000, 0)
@example(-1000, 0)
def test_right_invertibility_under_powers_of_two(k, seed):
    # diag(1, eps): det / m^2 = eps, strictly above tol to be invertible
    for n, accepted in EDGES:
        eps = _ulps(TOL, n)
        m = _diag(math.ldexp(1.0, k), math.ldexp(eps, k))
        assert is_right_invertible(m, TOL) == (not accepted)
    m = Matrix2(*(rand_cone_element(random.Random(seed)) for _ in range(4)))
    big = Matrix2(*(_element(dict(enumerate(e.coeffs)), k) for e in m.entries()))
    assert is_right_invertible(big) == is_right_invertible(m)


@given(TENS, st.sampled_from((1.0 - 1e-6, 1.0 + 1e-6)))
@example(1e40, 1.0 + 1e-6)
@example(1e-40, 1.0 - 1e-6)
def test_right_invertibility_beside_its_threshold_under_powers_of_ten(t, factor):
    assert is_right_invertible(_diag(t, t * TOL * factor), TOL) == (factor > 1.0)
    assert is_right_invertible(Matrix2(t * E1, t * E23, t * E123, t * E1)) == (
        is_right_invertible(Matrix2(E1, E23, E123, E1))
    )


def _times(q: Quat, k: int) -> Quat:
    return Quat(*(math.ldexp(x, k) for x in q))


@settings(deadline=None)
@given(_DYADIC_QUATS, _DYADIC_QUATS, POWERS)
@example(Quat(0.0, 1.0), Quat(0.0, 0.0, 2.0), 665)  # <1e200>e23-sized inputs
@example(Quat(0.0, 1.0), Quat(0.0, 0.0, 2.0), -665)
def test_cauchy_kernel_scales_exactly_at_every_scale(s, q, k):
    # degree -1: S(2^k s, 2^k q) = 2^-k S(s, q), bit for bit, and the sphere
    # test gives the same answer, whether or not |s|^2 leaves the float range
    try:
        want = cauchy_kernel_quat(s, q)
    except OnSingularSphere:
        with pytest.raises(OnSingularSphere):
            cauchy_kernel_quat(_times(s, k), _times(q, k))
        return
    assert cauchy_kernel_quat(_times(s, k), _times(q, k)) == _times(want, -k)


def _linear(a: CliffordElement, k: int) -> BiSlicePoly:
    # x + a scaled to 2^k x + 2^k a: the value at 2^k x is 2^k times f(x)
    return BiSlicePoly([_element(dict(enumerate(a.coeffs)), k), E0])


@settings(deadline=None)
@given(st.integers(-500, 500))
@example(-40)  # the 1e-12 probe, in powers of two
@example(500)
@example(-500)
def test_pointwise_star_zero_test_is_relative(k):
    # f(x) = 2^k (e1 + e3) is 2^k times the unit-scale value, never zero
    f, g = _linear(E1, k), _linear(E2, k)
    x = ConePoint.from_element(_element({3: 1.0}, k))
    got = star_mul_pointwise(f, g, x)
    want = star_mul_pointwise(_linear(E1, 0), _linear(E2, 0), ConePoint.from_element(E3))
    assert not want.is_zero(0.0)
    assert got.coeffs == tuple(math.ldexp(c, 2 * k) for c in want.coeffs)


def test_pointwise_star_at_1e_minus_12_has_the_unit_scale_shape():
    t = 1e-12
    f, g = BiSlicePoly([t * E1, E0]), BiSlicePoly([t * E2, E0])
    got = star_mul_pointwise(f, g, ConePoint.from_element(t * E3))
    want = star_mul_pointwise(
        BiSlicePoly([E1, E0]), BiSlicePoly([E2, E0]), ConePoint.from_element(E3)
    )
    assert (got * (1 / t**2) - want).magnitude() <= 1e-12 * want.magnitude()
