"""Cauchy kernel values, contour integrals, reconstruction, regularity."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcone3 import (
    E0,
    E1,
    ZERO,
    BiSlicePoly,
    ConePoint,
    Quat,
    QuatPoly,
    SliceContour,
    cauchy,
    cauchy_kernel,
    cauchy_kernel_quat,
    cauchy_reconstruct,
    cone_point,
    contour_integral_vanishes,
    join,
    kernel_regularity_residual,
)
from qcone3.cauchy import (
    MAX_NODE_TERMS,
    MAX_NODES,
    _accumulate,
    _closed_integral,
    _kernel_weights,
    _slice_table,
    _slice_unit,
)
from qcone3.errors import (
    InputTooLarge,
    InvalidContour,
    NotImaginaryUnit,
    OnSingularSphere,
    PointOutsideContour,
)
from qcone3.clifford3 import Q12, Q13, Q23, negligible
from helpers import (
    contour_integral,
    contour_phase,
    contour_point,
    exact_trapezoid_component,
    rand_cone_point,
    rand_poly,
    rand_quat,
    rand_unit_imaginary,
    slice_plane_component,
    thetas,
)


def test_kernel_real_pole_examples():
    value = cauchy_kernel_quat(Quat(2.0), Q23)
    assert value.isclose((Quat(2.0) + Q23) / 5, 1e-14)
    rng = random.Random(0)
    for _ in range(100):
        q = rand_quat(rng)
        s = Quat(rng.uniform(2.5, 4.0))
        assert cauchy_kernel_quat(s, q).isclose((s - q).inverse(), 1e-12)


@pytest.mark.parametrize("t", [1e200, 1e-200])
def test_kernel_at_1e200_and_1e_minus_200(t):
    # |s|^2 and q^2 leave the float range; the kernel, of degree -1, does not
    rng = random.Random(9)
    for _ in range(50):
        s, q = rand_quat(rng), rand_quat(rng)
        want = cauchy_kernel_quat(s, q)
        got = cauchy_kernel_quat(s * t, q * t)
        assert (got * t - want).modulus() <= 1e-14 * want.modulus()


def test_kernel_common_slice_reduces_to_difference_inverse():
    rng = random.Random(1)
    for _ in range(100):
        unit = rand_unit_imaginary(rng)
        s = Quat(rng.uniform(-1, 1)) + unit * rng.uniform(0.2, 2.0)
        q = Quat(rng.uniform(-1, 1)) + unit * rng.uniform(0.2, 2.0)
        if (s - q).modulus() < 1e-3:
            continue
        assert cauchy_kernel_quat(s, q).isclose((s - q).inverse(), 1e-10)


def test_kernel_equals_geometric_series():
    # S(s, q) = sum_n q^n s^{-n-1} for |q| < |s|, the expansion behind
    # reconstruction at points off the contour slice
    rng = random.Random(11)
    for _ in range(50):
        q = rand_quat(rng, 0.8)
        s = rand_quat(rng, 2.0)
        if s.modulus() < 2.0 * q.modulus() or s.modulus() < 0.5:
            continue
        series = Quat()
        q_pow = Quat(1.0)
        s_inv = s.inverse()
        s_inv_pow = s_inv
        for _ in range(80):
            series = series + q_pow * s_inv_pow
            q_pow = q_pow * q
            s_inv_pow = s_inv_pow * s_inv
        assert cauchy_kernel_quat(s, q).isclose(series, 1e-10)


def test_kernel_singular_sphere():
    s = Quat(1.0) + Q23
    with pytest.raises(OnSingularSphere):
        cauchy_kernel_quat(s, s)
    # any point with the same real part and imaginary modulus is singular
    with pytest.raises(OnSingularSphere):
        cauchy_kernel_quat(s, Quat(1.0) + Q13)
    rng = random.Random(2)
    for _ in range(200):
        s = rand_quat(rng)
        q = rand_quat(rng)
        same_sphere = (
            abs(s.re() - q.re()) < 1e-12
            and abs(s.im_modulus() - q.im_modulus()) < 1e-12
        )
        try:
            cauchy_kernel_quat(s, q)
            assert not same_sphere
        except OnSingularSphere:
            assert same_sphere


def test_joined_kernel():
    s = ConePoint.from_element(2 * E0)
    x = ConePoint.from_element(E1)
    value = cauchy_kernel(s, x)
    expected = join((Quat(2.0) + Q23).inverse(), (Quat(2.0) - Q23).inverse())
    assert value.isclose(expected, 1e-14)
    # real s and real x reduce to the scalar difference inverse
    sr = ConePoint.from_element(3 * E0)
    xr = ConePoint.from_element(E0)
    assert cauchy_kernel(sr, xr).isclose(E0 * 0.5, 1e-14)
    with pytest.raises(OnSingularSphere):
        cauchy_kernel(ConePoint.from_element(E1), ConePoint.from_element(E1))


def test_contour_validation():
    with pytest.raises(ValueError):
        SliceContour(0.0, -1.0, Q23)
    with pytest.raises(ValueError):
        SliceContour(0.0, 1.0, Q23, nodes=8)
    with pytest.raises(NotImaginaryUnit):
        SliceContour(0.0, 1.0, Q23 + Q13)


def test_contour_validation_names_the_error():
    for center, radius, nodes in (
        (0.0, -1.0, 64),
        (0.0, 0.0, 64),
        (0.0, math.nan, 64),
        (0.0, math.inf, 64),
        (math.nan, 1.0, 64),
        (-math.inf, 1.0, 64),
        (0.0, 1.0, 8),
        (0.0, 1.0, MAX_NODES + 1),
    ):
        with pytest.raises(InvalidContour):
            SliceContour(center, radius, Q23, nodes)
    assert SliceContour(0.0, 1.0, Q23, MAX_NODES).nodes == MAX_NODES



def test_quadrature_work_is_bounded_jointly():
    # At MAX_NODES nodes one coefficient past the bound fails both
    # quadratures, whichever contour carries the excess.
    terms = MAX_NODE_TERMS // MAX_NODES
    small = SliceContour(0.0, 2.0, Q23, 64)
    big = SliceContour(0.0, 2.0, Q13, MAX_NODES)
    poly = BiSlicePoly([E1] * (terms + 1))
    for ci, cj in ((big, small), (small, big)):
        with pytest.raises(InputTooLarge):
            cauchy_reconstruct(poly, ci, cj, 0.5 * E1)
        with pytest.raises(InputTooLarge):
            contour_integral_vanishes(poly, ci, cj)


def test_closed_integrals_vanish_for_polynomials():
    ci = SliceContour(0.0, 2.0, Q23, 256)
    cj = SliceContour(0.0, 2.0, Q13, 256)
    mi, mj = contour_integral_vanishes(BiSlicePoly([ZERO, E0]), ci, cj)
    assert mi < 1e-10 and mj < 1e-10
    rng = random.Random(3)
    for _ in range(20):
        poly = rand_poly(rng, 4)
        big_i = SliceContour(0.0, 2.0, Q23, 512)
        big_j = SliceContour(0.0, 2.0, Q13, 512)
        mi, mj = contour_integral_vanishes(poly, big_i, big_j)
        bound = 1e-8 * (1 + max(poly.split()[k].eval(Quat(2.0)).modulus() for k in (0, 1)))
        assert mi < bound and mj < bound


def test_nonregular_integrand_does_not_vanish():
    contour = SliceContour(0.0, 2.0, Q23, 256)
    value = contour_integral(contour, lambda s: s.conj())
    assert abs(value.modulus() - 2 * math.pi * contour.radius**2) < 1e-8


def test_reconstruct_constant_and_square():
    c1 = SliceContour(0.0, 2.0, Q23, 512)
    c2 = SliceContour(0.0, 2.0, Q13, 512)
    rng = random.Random(4)
    x = rand_cone_point(rng, scale=0.9)
    got = cauchy_reconstruct(BiSlicePoly([E0]), c1, c2, x)
    assert (got - E0).magnitude() < 1e-8
    half = ConePoint.from_element(0.5 * E1)
    got = cauchy_reconstruct(BiSlicePoly.monomial(2), c1, c2, half)
    assert (got + 0.25 * E0).magnitude() < 1e-7


def test_reconstruct_random_polynomials():
    c1 = SliceContour(0.0, 2.0, Q23, 512)
    c2 = SliceContour(0.0, 2.0, Q13, 512)
    rng = random.Random(5)
    for _ in range(20):
        poly = rand_poly(rng, rng.randint(0, 5))
        x = cone_point(
            rng.uniform(-0.8, 0.8),
            rng.uniform(0.3, 1.2),
            rand_unit_imaginary(rng),
            rand_unit_imaginary(rng),
        )
        got = cauchy_reconstruct(poly, c1, c2, x)
        want = poly.eval(x)
        assert (got - want).magnitude() < 1e-6 * (1 + want.magnitude())


def test_reconstruct_requires_interior_point():
    c1 = SliceContour(0.0, 1.0, Q23, 64)
    c2 = SliceContour(0.0, 1.0, Q13, 64)
    with pytest.raises(PointOutsideContour):
        cauchy_reconstruct(BiSlicePoly([E0]), c1, c2, ConePoint.from_element(3 * E0))


def test_reconstruct_error_decays_geometrically():
    rng = random.Random(6)
    poly = rand_poly(rng, 3)
    x = cone_point(0.9, 1.55, rand_unit_imaginary(rng), rand_unit_imaginary(rng))
    errors = {}
    for nodes in (128, 256, 512):
        c1 = SliceContour(0.0, 2.0, Q23, nodes)
        c2 = SliceContour(0.0, 2.0, Q13, nodes)
        got = cauchy_reconstruct(poly, c1, c2, x)
        errors[nodes] = (got - poly.eval(x)).magnitude()
    assert errors[128] > 10 * errors[256]
    assert errors[256] > 10 * errors[512] or errors[512] < 1e-13


def test_kernel_regularity_residuals():
    s = ConePoint.from_element(3 * E0)
    x = ConePoint.from_element(E1)
    left, right = kernel_regularity_residual(s, x, 1e-4)
    assert left < 1e-7 and right < 1e-7
    rng = random.Random(7)
    for _ in range(20):
        s = rand_cone_point(rng, scale=1.0)
        x = cone_point(
            s.alpha + 2.5 + rng.uniform(0, 1),
            s.beta + 1.0,
            rand_unit_imaginary(rng),
            rand_unit_imaginary(rng),
        )
        l1, r1 = kernel_regularity_residual(s, x, 2e-3)
        l2, r2 = kernel_regularity_residual(s, x, 1e-3)
        if l1 > 1e-10:
            assert 2.0 < l1 / l2 < 8.0
        if r1 > 1e-10:
            assert 2.0 < r1 / r2 < 8.0


def _reference_component(poly: QuatPoly, contour: SliceContour, target: Quat) -> Quat:
    # The node loop in quaternion arithmetic, one kernel value per node.
    acc = Quat()
    for theta in thetas(contour):
        s = contour_point(contour, theta)
        phase = contour_phase(contour, theta)
        acc = acc + cauchy_kernel_quat(s, target) * phase * poly.eval(s)
    return acc / contour.nodes


def _check_against_quaternion_loop(rng, nodes: int, degree: int) -> None:
    poly = rand_poly(rng, degree)
    fp, fq = poly.split()
    center = rng.uniform(-0.5, 0.5)
    radius = rng.uniform(1.0, 2.0)
    ci = SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
    cj = SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
    dist = rng.uniform(0.2, 0.7) * radius
    angle = rng.uniform(0.15, math.pi - 0.15)
    targets = (
        cone_point(
            center + dist * math.cos(angle),
            dist * math.sin(angle),
            rand_unit_imaginary(rng),
            rand_unit_imaginary(rng),
        ),
        # real point: i1 is None and the target plane's unit is a fallback
        ConePoint(center + dist * math.cos(angle), 0.0, None, None),
    )
    for x in targets:
        got = cauchy_reconstruct(poly, ci, cj, x)
        want = join(
            _reference_component(fp, ci, x.p),
            _reference_component(fq, cj, x.q),
        )
        assert (got - want).magnitude() <= 1e-13 * (1 + want.magnitude())
    _check_closed_integrals(poly, ci, cj)


def test_slice_plane_quadrature_matches_quaternion_loop():
    rng = random.Random(12)
    for nodes in (16, 64, 512):
        for degree in range(6):
            _check_against_quaternion_loop(rng, nodes, degree)
    # degree N - 1 at N nodes aliases onto the constant mode, so the closed
    # integrals stay large and the comparison sees more than rounding
    for nodes in (16, 17):
        ci = SliceContour(0.3, 1.0, rand_unit_imaginary(rng), nodes)
        cj = SliceContour(0.3, 1.0, rand_unit_imaginary(rng), nodes)
        assert min(_check_closed_integrals(rand_poly(rng, nodes - 1), ci, cj)) > 1.0


@pytest.mark.parametrize("nodes", [17, 33, 65, 255])
def test_odd_node_counts_match_quaternion_loop(nodes):
    # An odd N has no node at t = pi: every node but t = 0 has a distinct
    # conjugate, so the last table node carries weight 2.
    rng = random.Random(nodes)
    for degree in range(6):
        _check_against_quaternion_loop(rng, nodes, degree)


def _check_closed_integrals(poly, ci, cj) -> tuple[float, float]:
    got = contour_integral_vanishes(poly, ci, cj)
    for value, f, c in zip(got, poly.split(), (ci, cj)):
        want = contour_integral(c, f.eval)
        scale = 1 + max(f.eval(contour_point(c, t)).modulus() for t in thetas(c))
        assert (_closed_integral(_slice_table(f, c), c) - want).modulus() <= 1e-13 * scale
        assert abs(value - want.modulus()) <= 1e-13 * scale
    return got


def test_slice_plane_quadrature_keeps_singular_test():
    # the node at t = pi/2 is I, whose sphere holds every unit imaginary
    contour = SliceContour(0.0, 1.0, Q23, 16)
    with pytest.raises(OnSingularSphere):
        _kernel_weights(_slice_table(QuatPoly([1.0]), contour)[:2], contour, 0.0, 1.0, 1e-12)


def _inside(rng, center: float, radius: float, rho: float) -> ConePoint:
    angle = rng.uniform(0.15, math.pi - 0.15)
    return cone_point(
        center + rho * radius * math.cos(angle),
        rho * radius * math.sin(angle),
        rand_unit_imaginary(rng),
        rand_unit_imaginary(rng),
    )


def test_reconstruction_does_not_depend_on_contour_units():
    # The Cauchy formula holds on any slice, so the contours' units drop out
    # of the value; the half-table sums are real, so they drop out of the
    # floats too.  One in five targets is real, where J falls back to I.
    rng = random.Random(31)
    for k in range(200):
        nodes = rng.choice((16, 17, 33, 64, 65, 128))
        poly = rand_poly(rng, rng.randint(0, 5))
        center, radius = rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)
        x = _inside(rng, center, radius, rng.uniform(0.0, 0.7))
        if k % 5 == 0:
            x = ConePoint(x.alpha, 0.0, None, None)
        values = [
            cauchy_reconstruct(
                poly,
                SliceContour(center, radius, rand_unit_imaginary(rng), nodes),
                SliceContour(center, radius, rand_unit_imaginary(rng), nodes),
                x,
            ).coeffs
            for _ in range(2)
        ]
        assert values[0] == values[1], (k, nodes)


def test_reconstruction_is_close_to_the_exact_trapezoid_value():
    # T_N is the N-node trapezoid sum in 40-digit quaternion arithmetic over
    # all N nodes, from the same float inputs.  Each component must agree
    # with it within 2e-15 times the largest term; a corpus of 96 inputs at
    # N = 16 ... 512 (odd N included) read at most 4e-16.
    pytest.importorskip("mpmath")
    rng = random.Random(32)
    for k, nodes in enumerate((16, 17, 32, 33, 64, 65, 96, 97, 128, 16, 17, 33)):
        poly = rand_poly(rng, k % 6)
        center, radius = rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)
        x = _inside(rng, center, radius, rng.uniform(0.2, 0.7))
        if k >= 9:
            x = ConePoint(x.alpha, 0.0, None, None)
        for f, target in zip(poly.split(), (x.p, x.q)):
            contour = SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
            side = _slice_table(f, contour)
            weights = _kernel_weights(side[:2], contour, x.alpha, x.beta, 1e-12)
            got = _accumulate(weights, side, _slice_unit(target, contour), nodes)
            want, largest = exact_trapezoid_component(f, contour, target)
            error = max(abs(a - b) for a, b in zip(got, want))
            assert error <= 2e-15 * largest, (k, nodes, error / largest)


def _target_unit(target: Quat, contour: SliceContour) -> Quat:
    m = target.im_modulus()
    return target.im() / m if m > 0.0 else contour.unit


def test_reconstruction_matches_the_slice_plane_loop():
    # The (g, h) node loop at the cone point's (alpha, beta) and each side's
    # own unit, on circles the two components share, on two circles, and at
    # real points.  The library sums the complex kernels x, y in their place,
    # so these 500 inputs agree with it to rounding, at most 2.9e-15 of
    # 1 + |value|.
    rng = random.Random(33)
    for k in range(500):
        nodes = rng.choice((16, 17, 33, 64, 65, 128))
        poly = rand_poly(rng, rng.randint(0, 5))
        center, radius = rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)
        ci = SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
        shift = 0.0 if k % 2 else rng.uniform(-0.3, 0.3)
        # a shifted circle of radius radius + |shift| holds ci's whole disc
        cj = SliceContour(
            center + shift, radius + abs(shift), rand_unit_imaginary(rng), nodes
        )
        x = _inside(rng, center, radius, rng.uniform(0.0, 0.7))
        if k % 5 == 0:
            x = ConePoint(x.alpha, 0.0, None, None)
        got = cauchy_reconstruct(poly, ci, cj, x)
        want = join(
            *(
                slice_plane_component(f, c, x.alpha, x.beta, _target_unit(t, c))
                for f, c, t in zip(poly.split(), (ci, cj), (x.p, x.q))
            )
        )
        assert (got - want).magnitude() <= 1e-13 * (1 + want.magnitude()), k


def test_one_weight_pass_per_circle(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _kernel_weights(*args)

    monkeypatch.setattr(cauchy, "_kernel_weights", counted)
    rng = random.Random(34)
    poly = rand_poly(rng, 3)
    ci = SliceContour(0.1, 1.5, Q23, 64)
    x = _inside(rng, 0.1, 1.5, 0.5)
    for cj, passes in (
        (SliceContour(0.1, 1.5, Q13, 64), 1),  # ci's circle in another slice
        (SliceContour(0.1, 1.6, Q23, 64), 2),
        (SliceContour(0.1, 1.5, Q23, 65), 2),
    ):
        calls.clear()
        cauchy_reconstruct(poly, ci, cj, x)
        assert len(calls) == passes


@pytest.mark.parametrize("nodes", [16, 17, 64])
def test_closed_integral_keeps_the_contour_unit(nodes):
    # On a centred circle the N trapezoid nodes alias s^{N-1} ds onto
    # I r^N e^{I N t} dt, whose node values are all I r^N: the sum is
    # 2 pi r^N I, pointing along the contour's own unit.
    rng = random.Random(nodes)
    f = QuatPoly([0.0] * (nodes - 1) + [1.0])
    for radius in (0.9, 1.0, 1.3):
        contour = SliceContour(0.0, radius, rand_unit_imaginary(rng), nodes)
        got = _closed_integral(_slice_table(f, contour), contour)
        size = 2.0 * math.pi * radius**nodes
        assert (got - contour.unit * size).modulus() <= 1e-13 * size


# The node table of the last (polynomial, contour_i, contour_j) call is kept and
# reused while all three are the same objects; equal copies never hit it.


def _copies(poly, *contours):
    return (BiSlicePoly(poly.coeffs), *(SliceContour(*c) for c in contours))


def _memo_target(rng):
    # inside every memo test contour: centers -0.2..0.1, radii 1.2 and up
    return cone_point(
        rng.uniform(-0.3, 0.3),
        rng.uniform(0.1, 0.6),
        rand_unit_imaginary(rng),
        rand_unit_imaginary(rng),
    )


def _quadratures(args, x):
    return cauchy_reconstruct(*args, x).coeffs, contour_integral_vanishes(*args)


def test_memo_hit_equals_fresh_objects_float_for_float():
    rng = random.Random(21)
    for nodes in (16, 64, 512):
        for degree in range(6):
            poly = rand_poly(rng, degree)
            ci = SliceContour(0.1, 1.5, rand_unit_imaginary(rng), nodes)
            # the second circle alternates between ci's circle, whose columns
            # the table shares, and a circle of its own
            center, radius = (0.1, 1.5) if degree % 2 else (-0.2, 1.8)
            cj = SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
            cauchy_reconstruct(poly, ci, cj, _memo_target(rng))
            entry = cauchy._last_table
            x = _memo_target(rng)
            hit = _quadratures((poly, ci, cj), x)
            assert cauchy._last_table is entry
            assert hit == _quadratures(_copies(poly, ci, cj), x)


def test_memo_interleaved_calls_return_their_own_values():
    rng = random.Random(22)
    for nodes in (16, 64, 512):
        for degree in range(6):
            p1, p2 = rand_poly(rng, degree), rand_poly(rng, degree)
            ci, cj, ci2, cj2 = (
                SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
                for center, radius in ((0.1, 1.5), (-0.2, 1.8), (0.0, 1.2), (0.05, 1.6))
            )
            x = _memo_target(rng)
            a = (p1, ci, cj)
            for b in ((p2, ci, cj), (p1, ci, cj2), (p1, ci2, cj), (p2, ci2, cj2), (p1, cj, ci)):
                want = [_quadratures(_copies(*args), x) for args in (a, b, a)]
                assert [_quadratures(args, x) for args in (a, b, a)] == want


def test_memo_hit_keeps_contour_and_singular_checks():
    rng = random.Random(23)
    for nodes in (16, 64, 512):
        for degree in range(6):
            poly = rand_poly(rng, degree)
            ci = SliceContour(0.0, 1.0, Q23, nodes)
            cj = SliceContour(0.0, 1.0, Q13, nodes)
            cauchy_reconstruct(poly, ci, cj, cone_point(0.1, 0.2, Q12, Q12), 1e-6)
            entry = cauchy._last_table
            with pytest.raises(PointOutsideContour):
                cauchy_reconstruct(poly, ci, cj, 3 * E0, 1e-6)
            # inside the disc, 1e-9 from the sphere of the node I at t = pi/2
            near = cone_point(0.0, 1.0 - 1e-9, Q12, Q12)
            with pytest.raises(OnSingularSphere):
                cauchy_reconstruct(poly, ci, cj, near, 1e-6)
            assert cauchy._last_table is entry


def test_memo_holds_one_node_table_at_a_time():
    rng = random.Random(25)
    poly = rand_poly(rng, 3)
    args = (poly, SliceContour(0.1, 1.5, Q23, 1024), SliceContour(-0.2, 1.8, Q13, 1024))
    x = _memo_target(rng)
    cauchy._last_table = ()
    tracemalloc.start()
    try:
        cauchy_reconstruct(*_copies(*args), x)
        one = tracemalloc.get_traced_memory()[1]
        # fresh objects miss the memo, which held the first table until now
        cauchy_reconstruct(*_copies(*args), x)
        two = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert two <= 1.2 * one, (one, two)


def test_contour_reach_keeps_kernel_squares_finite():
    # 4 (|center| + radius)^2 must be finite: about 6.7039e153 of reach.
    for center, radius in ((0.0, 6.71e153), (-6e153, 1e153), (0.0, 1e200)):
        with pytest.raises(InvalidContour, match="overflow"):
            SliceContour(center, radius, Q23, 64)
    ci = SliceContour(0.0, 6.7e153, Q23, 64)
    cj = SliceContour(0.0, 6.7e153, Q13, 64)
    value = cauchy_reconstruct(BiSlicePoly([E0]), ci, cj, cone_point(0.5, 0.5, Q23, Q13))
    assert value.isclose(E0, 1e-12)


def test_contour_radius_keeps_kernel_squares_normal():
    # radius^2 must be a normal float: 2^-511 (about 1.49e-154) is the least
    # radius; a contour through 0 with a smaller one read nan, though its
    # reach is 2^-511
    least = math.ldexp(1.0, -511)
    for center, radius in (
        (0.0, math.nextafter(least, 0.0)),
        (0.0, 1e-156),
        (-0.5 * least, 0.5 * least),
    ):
        with pytest.raises(InvalidContour, match="overflow or underflow"):
            SliceContour(center, radius, Q23, 64)
    poly = BiSlicePoly([E0, E1])
    for center, radius in ((0.0, least), (-least, least), (0.0, 1e-150)):
        ci, cj = SliceContour(center, radius, Q23, 64), SliceContour(center, radius, Q13, 64)
        x = cone_point(center, 0.5 * radius, Q23, Q13)
        error = (cauchy_reconstruct(poly, ci, cj, x) - poly.eval(x)).magnitude()
        assert error < 1e-12


# -- the weight pass on the two complex kernels ---------------------------------


def _weights(contour: SliceContour, alpha: float, beta: float, tol: float = 1e-12):
    return _kernel_weights(_slice_table(QuatPoly([1.0]), contour)[:2], contour, alpha, beta, tol)


def _node_gaps(contour: SliceContour, alpha: float, beta: float) -> list[tuple[float, float]]:
    """``(min(|z - q_c|, |z - conj q_c|), |(z, q)|)`` node by node: the value
    and scale of the degree-1 singular test, without the screen."""
    q_c = complex(alpha, beta)
    return [
        (min(abs(z - q_c), abs(z - q_c.conjugate())), math.hypot(abs(z), abs(q_c)))
        for z in _slice_table(QuatPoly([1.0]), contour)[1]
    ]


def _loop_raises(contour: SliceContour, alpha: float, beta: float, tol: float) -> bool:
    return any(negligible(gap, scale, 1, tol) for gap, scale in _node_gaps(contour, alpha, beta))


def _least_tol(gap: float, scale: float) -> float:
    """The least tol with ``gap <= tol * scale``."""
    tol = gap / scale
    while tol * scale < gap:
        tol = math.nextafter(tol, math.inf)
    while math.nextafter(tol, 0.0) * scale >= gap:
        tol = math.nextafter(tol, 0.0)
    return tol


def _threshold_tols(contour: SliceContour, alpha: float, beta: float) -> list[float]:
    """The least tolerance at which some node is singular, and one step
    either side: the loop decides (False, True, True) there."""
    tol = min(_least_tol(gap, scale) for gap, scale in _node_gaps(contour, alpha, beta))
    return [math.nextafter(tol, 0.0), tol, math.nextafter(tol, math.inf)]


def _raises(contour, alpha, beta, tol) -> bool:
    try:
        _weights(contour, alpha, beta, tol)
    except OnSingularSphere:
        return True
    return False


def _screen_cases():
    """``(contour, alpha, beta)`` for the singular-node screen: random targets
    near a node, then targets 1 to 4 ulps of the radius inside the circle at
    node angles and half way between, real ones among them, on odd and even N,
    on circles that include radius 1e-5 about 1, each also scaled exactly by
    2^-490 and 2^505, near both ends of the range SliceContour accepts."""
    rng = random.Random(41)
    for k in range(300):
        nodes = rng.choice((16, 17, 64, 65))
        center, radius = rng.uniform(-2.0, 2.0), rng.uniform(1e-3, 2.0)
        contour = SliceContour(center, radius, Q23, nodes)
        t = 2.0 * math.pi * rng.randrange(nodes // 2 + 1) / nodes
        rho = 1.0 - 10.0 ** rng.uniform(-9.0, -1.0)
        alpha = center + rho * radius * math.cos(t)
        beta = 0.0 if k % 7 == 0 else abs(rho * radius * math.sin(t))
        yield contour, alpha, beta
    for nodes in (16, 17, 64, 65):
        for center, radius in ((0.0, 1.0), (0.75, 1.25), (-1.5, 0.375), (1.0, 1e-5)):
            for ulps in (1, 4):
                dist = radius - ulps * math.ulp(radius)
                targets = [(center + dist, 0.0), (center - dist, 0.0)]  # real
                for half in (0.0, 0.5):  # at node k, or half way to node k + 1
                    for k in (0, 1, nodes // 4, nodes // 2):
                        t = 2.0 * math.pi * (k + half) / nodes
                        targets.append((center + dist * math.cos(t), abs(dist * math.sin(t))))
                for e in (0, -490, 505):
                    contour = SliceContour(
                        math.ldexp(center, e), math.ldexp(radius, e), Q23, nodes
                    )
                    for alpha, beta in targets:
                        yield contour, math.ldexp(alpha, e), math.ldexp(beta, e)


def test_screened_singular_test_decides_as_the_node_loop():
    # At each case's least singular tolerance and one step either side (and a
    # few tolerances further off), the screened pass raises exactly when the
    # plain loop over every node does.
    for case, (contour, alpha, beta) in enumerate(_screen_cases()):
        if min(gap for gap, _ in _node_gaps(contour, alpha, beta)) == 0.0:
            # the target rounded onto a node: singular at every tol, even 0
            assert _raises(contour, alpha, beta, 0.0), case
            continue
        below, at, above = _threshold_tols(contour, alpha, beta)
        tols = (below, at, above, 10.0 * above, 0.1 * below, 1e-10)
        screened = [_raises(contour, alpha, beta, tol) for tol in tols]
        assert screened == [_loop_raises(contour, alpha, beta, tol) for tol in tols], case
        assert screened[:3] == [False, True, True], case


def test_well_inside_targets_skip_the_node_loop(monkeypatch):
    # At 0.7 of the radius the disc alone shows that no node is singular, so
    # no node is tested; 1e-12 of the radius inside, between two nodes, every
    # node is tested and none is singular.
    tested = []

    def counted(*args):
        tested.append(args)
        return negligible(*args)

    monkeypatch.setattr(cauchy, "negligible", counted)
    poly = BiSlicePoly([E0, E1])
    for nodes in (16, 17, 64, 65):
        for center, radius in ((0.1, 1.5), (-2.0, 0.5), (1.0, 1e-5)):
            ci = SliceContour(center, radius, Q23, nodes)
            cj = SliceContour(center, radius, Q13, nodes)
            for angle in (0.0, 0.4, 0.5 * math.pi, math.pi):
                x = cone_point(
                    center + 0.7 * radius * math.cos(angle),
                    0.7 * radius * math.sin(angle),
                    Q12,
                    Q13,
                )
                cauchy_reconstruct(poly, ci, cj, x)
    assert tested == []
    contour = SliceContour(0.1, 1.5, Q23, 16)
    t = math.pi / 16
    dist = 1.5 * (1.0 - 1e-12)
    _weights(contour, 0.1 + dist * math.cos(t), dist * math.sin(t))
    assert len(tested) == 9


def test_weight_pass_has_no_per_node_loop():
    # Off the singular spheres, the pass runs the same Python lines at 16 and
    # at 4096 nodes: all per-node work is in C.
    def traced_lines(nodes: int) -> int:
        contour = SliceContour(0.1, 1.5, Q23, nodes)
        circle = _slice_table(QuatPoly([1.0]), contour)[:2]
        count = 0

        def tracer(frame, event, arg):
            nonlocal count
            if frame.f_code is _kernel_weights.__code__:
                count += event == "line"
                return tracer
            return None

        sys.settrace(tracer)
        try:
            _kernel_weights(circle, contour, 0.3, 0.5, 1e-10)
        finally:
            sys.settrace(None)
        return count

    assert traced_lines(16) == traced_lines(4096) > 0


@settings(max_examples=60, deadline=None)
@given(
    center=st.floats(-3.0, 3.0),
    radius=st.floats(0.5, 2.0),
    rho=st.floats(0.0, 0.999),
    angle=st.floats(0.0, math.pi),
    nodes=st.sampled_from((16, 17, 64)),
    k=st.integers(-400, 400),
)
def test_weights_have_degree_zero(center, radius, rho, angle, nodes, k):
    # x = phi / (z - q_c) and y = phi / (z - conj q_c) are of degree 0: the
    # circle and the target scaled by 2^k give the same floats, while every
    # step stays a normal float.
    alpha = center + rho * radius * math.cos(angle)
    beta = rho * radius * math.sin(angle)
    assume(all(v == 0.0 or abs(v) >= 1e-30 for v in (center, alpha, beta)))
    f = math.ldexp(1.0, k)
    contour = SliceContour(center, radius, Q23, nodes)
    scaled = SliceContour(center * f, radius * f, Q23, nodes)
    assert _weights(scaled, alpha * f, beta * f) == _weights(contour, alpha, beta)


@pytest.mark.parametrize("rho", [0.9, 0.99, 0.999, 0.9999, 0.99999])
def test_near_contour_targets_at_the_least_radius(rho):
    # At radius 2^-511 a kernel denominator of degree 2 is subnormal near the
    # contour, and its inverse overflows; the weights, of degree 0, stay
    # finite.  The trapezoid value of a target at rho of the radius aliases by
    # f(q) rho^N / (1 - rho^N) per complex kernel.
    radius, nodes = math.ldexp(1.0, -511), 64
    poly = BiSlicePoly([E0, E1])
    ci, cj = SliceContour(0.0, radius, Q23, nodes), SliceContour(0.0, radius, Q13, nodes)
    angle = 1.0
    x = cone_point(rho * radius * math.cos(angle), rho * radius * math.sin(angle), Q12, Q13)
    got = cauchy_reconstruct(poly, ci, cj, x)
    assert all(map(math.isfinite, got.coeffs))
    fp, fq = poly.split()
    size = max(fp.eval(x.p).modulus(), fq.eval(x.q).modulus())
    aliasing = 2.0 * rho**nodes / (1.0 - rho**nodes) * size
    assert (got - poly.eval(x)).magnitude() <= aliasing + 1e-12 * size / (1.0 - rho)


def test_kernel_singular_test_is_of_degree_one():
    # 1e-5 from the real pole 1.00001: |s - q|^2 = 1e-10 would be negligible
    # at degree 2 beside the default tol, the distance 1e-5 at degree 1 is not.
    s, q = Quat(1.00001), Quat(1.0, 1e-7)
    value = cauchy_kernel_quat(s, q)
    gap = Fraction(s.w) - Fraction(q.w), -Fraction(q.a23)
    size = gap[0] ** 2 + gap[1] ** 2
    # (s - q)^-1 = conj(s - q) / |s - q|^2, to rounding
    want = Quat(float(gap[0] / size), float(-gap[1] / size))
    assert (value - want).modulus() <= 1e-15 * want.modulus()
    # at the threshold and one step either side: the gap is |q - s| here
    tol = _least_tol(math.hypot(q.w - s.w, q.a23), math.hypot(s.w, q.w, q.a23))
    cauchy_kernel_quat(s, q, math.nextafter(tol, 0.0))
    for at_or_above in (tol, math.nextafter(tol, math.inf)):
        with pytest.raises(OnSingularSphere):
            cauchy_kernel_quat(s, q, at_or_above)


def test_small_contour_far_from_zero_is_not_singular():
    # radius 1e-5 about 1: the nodes are 1e-5 from the target, of size 1
    poly = BiSlicePoly([E0, E1])
    ci, cj = SliceContour(1.0, 1e-5, Q23, 64), SliceContour(1.0, 1e-5, Q13, 64)
    x = ConePoint.from_element(E0 + E1 * 1e-7)
    error = (cauchy_reconstruct(poly, ci, cj, x) - poly.eval(x)).magnitude()
    assert error < 1e-12
