"""Cauchy kernel values, contour integrals, reconstruction, regularity."""

import math
import random
import sys
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcone3 import (
    E0,
    E1,
    E12,
    ZERO,
    BiSlicePoly,
    CliffordElement,
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
    split,
    kernel_regularity_residual,
)
from qcone3.cauchy import (
    MAX_NODE_TERMS,
    MAX_NODES,
    MAX_TAYLOR_TERMS,
    _accumulate,
    _closed_integral,
    _kernel_weights,
    _node_table,
    _slice_table,
    _slice_unit,
    _unit_circle,
)
from qcone3.cli import run
from qcone3.errors import (
    InputTooLarge,
    InvalidContour,
    NotImaginaryUnit,
    OnSingularSphere,
    PointOutsideContour,
)
from qcone3.clifford3 import EPS, Q12, Q13, Q23, negligible
from helpers import (
    contour_integral,
    contour_phase,
    contour_point,
    exact_trapezoid_component,
    coefficient_columns,
    horner_bound,
    parity_class_columns,
    per_node_slice_columns,
    rand_cone_point,
    rand_poly,
    rand_quat,
    rand_unit_imaginary,
    slice_plane_component,
    thetas,
    unfolded_component,
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
    # quadratures.
    terms = MAX_NODE_TERMS // MAX_NODES
    ci = SliceContour(0.0, 2.0, Q23, MAX_NODES)
    cj = SliceContour(0.0, 2.0, Q13, MAX_NODES)
    poly = BiSlicePoly([E1] * (terms + 1))
    with pytest.raises(InputTooLarge):
        cauchy_reconstruct(poly, ci, cj, 0.5 * E1)
    with pytest.raises(InputTooLarge):
        contour_integral_vanishes(poly, ci, cj)


class _Shifted(Exception):
    """Raised in place of the Taylor shift, so reaching it costs nothing."""


@pytest.mark.parametrize("terms", [MAX_TAYLOR_TERMS, MAX_TAYLOR_TERMS + 1])
def test_taylor_shift_work_is_bounded(monkeypatch, terms):
    # The shift to the center takes about terms^2 / 2 row steps at any node
    # count, so 16 nodes do not let a long polynomial through: one coefficient
    # past MAX_TAYLOR_TERMS fails both quadratures before the shift starts.
    def no_shift(rows, x0, r):
        raise _Shifted

    monkeypatch.setattr(cauchy, "_taylor_rows", no_shift)
    ci = SliceContour(0.0, 2.0, Q23, 16)
    cj = SliceContour(0.0, 2.0, Q13, 16)
    poly = BiSlicePoly([E1] * terms)
    assert 16 * terms <= MAX_NODE_TERMS
    expected = _Shifted if terms <= MAX_TAYLOR_TERMS else InputTooLarge
    with pytest.raises(expected):
        cauchy_reconstruct(poly, ci, cj, 0.5 * E1)
    with pytest.raises(expected):
        contour_integral_vanishes(poly, ci, cj)


def _refused(args) -> list[bool]:
    """Whether each quadrature refuses the two contours of ``args``."""
    refused = []
    for call in (lambda: cauchy_reconstruct(*args, 0.3 * E1), lambda: contour_integral_vanishes(*args)):
        try:
            call()
        except InvalidContour:
            refused.append(True)
        else:
            refused.append(False)
    return refused


def test_contours_on_two_circles_are_refused():
    # The split components integrate over one circle: a second contour that
    # differs in center, radius or node count is refused by both quadratures,
    # in either order; one that differs only in its unit, or in the sign of a
    # zero center, is the same circle.
    poly = BiSlicePoly([E0, E1, E12])
    for center in (0.0, -0.5):
        ci = SliceContour(center, 1.5, Q23, 64)
        same = SliceContour(center, 1.5, Q13, 64)
        assert _refused((poly, ci, same)) == [False, False]
        for cj in (
            SliceContour(math.nextafter(center, 1.0), 1.5, Q13, 64),
            SliceContour(center, math.nextafter(1.5, 2.0), Q13, 64),
            SliceContour(center, 1.5, Q13, 65),
        ):
            assert _refused((poly, ci, cj)) == [True, True], cj
            assert _refused((poly, cj, ci)) == [True, True], cj
    plus, minus = SliceContour(0.0, 1.5, Q23, 64), SliceContour(-0.0, 1.5, Q13, 64)
    assert _refused((poly, plus, minus)) == _refused((poly, minus, plus)) == [False, False]


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


def _component(f: QuatPoly, contour: SliceContour) -> list:
    """One component's node table: per class ``f_j``, its four columns."""
    return [c[:4] for c in _slice_table(f, f, contour)]


def _zs(contour: SliceContour) -> list:
    """The nodes ``x0 + r u`` of the contour's circle, k <= N//2."""
    return [contour.center + u * contour.radius for u in _unit_circle(contour.nodes)]


def _check_closed_integrals(poly, ci, cj) -> tuple[float, float]:
    got = contour_integral_vanishes(poly, ci, cj)
    for value, f, c in zip(got, poly.split(), (ci, cj)):
        want = contour_integral(c, f.eval)
        scale = 1 + max(f.eval(contour_point(c, t)).modulus() for t in thetas(c))
        assert (_closed_integral(_component(f, c), c) - want).modulus() <= 1e-13 * scale
        assert abs(value - want.modulus()) <= 1e-13 * scale
    return got


def test_slice_plane_quadrature_keeps_singular_test():
    # the node at t = pi/2 is I, whose sphere holds every unit imaginary
    contour = SliceContour(0.0, 1.0, Q23, 16)
    with pytest.raises(OnSingularSphere):
        _kernel_weights(contour, 0.0, 1.0, 1e-12)


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
            weights = _kernel_weights(contour, x.alpha, x.beta, 1e-12)
            got = _accumulate(weights, _component(f, contour), _slice_unit(target, contour), nodes)
            want, largest = exact_trapezoid_component(f, contour, target)
            error = max(abs(a - b) for a, b in zip(got, want))
            assert error <= 2e-15 * largest, (k, nodes, error / largest)


def _target_unit(target: Quat, contour: SliceContour) -> Quat:
    m = target.im_modulus()
    return target.im() / m if m > 0.0 else contour.unit


def test_reconstruction_matches_the_slice_plane_loop():
    # The (g, h) node loop at the cone point's (alpha, beta) and each side's
    # own unit, on the circle the two components share, and at real points.
    # The library sums the complex kernels x, y in their place, so these 500
    # inputs agree with it to rounding, at most 2.9e-15 of 1 + |value|.
    rng = random.Random(33)
    for k in range(500):
        nodes = rng.choice((16, 17, 33, 64, 65, 128))
        poly = rand_poly(rng, rng.randint(0, 5))
        center, radius = rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)
        ci = SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
        cj = SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
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
    for unit in (Q13, Q23):  # ci's circle in another slice, and in its own
        calls.clear()
        cauchy_reconstruct(poly, ci, SliceContour(0.1, 1.5, unit, 64), x)
        assert len(calls) == 1


@pytest.mark.parametrize("nodes", [16, 17, 64])
def test_closed_integral_keeps_the_contour_unit(nodes):
    # On a centred circle the N trapezoid nodes alias s^{N-1} ds onto
    # I r^N e^{I N t} dt, whose node values are all I r^N: the sum is
    # 2 pi r^N I, pointing along the contour's own unit.
    rng = random.Random(nodes)
    f = QuatPoly([0.0] * (nodes - 1) + [1.0])
    for radius in (0.9, 1.0, 1.3):
        contour = SliceContour(0.0, radius, rand_unit_imaginary(rng), nodes)
        got = _closed_integral(_component(f, contour), contour)
        size = 2.0 * math.pi * radius**nodes
        assert (got - contour.unit * size).modulus() <= 1e-13 * size


# The node table of the last (polynomial, contour) call is kept and reused
# while both are the same objects; equal copies never hit it.


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
            cj = SliceContour(0.1, 1.5, rand_unit_imaginary(rng), nodes)
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
            # ci, cj and cj2 share one circle, ci2 and cj3 another
            ci, cj, cj2, ci2, cj3 = (
                SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
                for center, radius in ((0.1, 1.5),) * 3 + ((-0.2, 1.8),) * 2
            )
            x = _memo_target(rng)
            a = (p1, ci, cj)
            for b in ((p2, ci, cj), (p1, ci, cj2), (p1, ci2, cj3), (p2, ci2, cj3), (p1, cj, ci)):
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
    args = (poly, SliceContour(0.1, 1.5, Q23, 1024), SliceContour(0.1, 1.5, Q13, 1024))
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


@pytest.mark.parametrize("radii", [0.0, 3.0])
def test_contour_radius_needs_only_to_be_normal(radii):
    # The quadrature squares nothing of the contour's size: it divides the
    # target's offset from the center by the radius once, so any normal
    # radius answers, far past the old bounds (radius^2 normal, 4 (|center| +
    # radius)^2 finite), and a subnormal one is refused.  The center is
    # ``radii`` radii from 0.
    poly = BiSlicePoly([E0, E1])
    for radius in (1e-300, 1e-156, 1e200, 1e300):
        center = radii * radius
        ci, cj = SliceContour(center, radius, Q23, 64), SliceContour(center, radius, Q13, 64)
        x = cone_point(center + 0.3 * radius, 0.4 * radius, Q23, Q13)
        want = poly.eval(x)
        error = (cauchy_reconstruct(poly, ci, cj, x) - want).magnitude()
        assert error <= 1e-15 * want.magnitude(), (radius, error)
    for radius in (sys.float_info.min, math.nextafter(sys.float_info.min, 0.0), 5e-324):
        if radius < sys.float_info.min:
            with pytest.raises(InvalidContour, match="normal float"):
                SliceContour(radii * radius, radius, Q23, 64)
        else:
            assert SliceContour(radii * radius, radius, Q23, 64).radius == radius


# -- the weight pass on the two complex kernels ---------------------------------


def _weights(contour: SliceContour, alpha: float, beta: float, tol: float = 1e-12):
    return _kernel_weights(contour, alpha, beta, tol)


def _node_gaps(contour: SliceContour, alpha: float, beta: float) -> list[tuple[float, float]]:
    """``(min(|u - rho|, |u - conj rho|), |(1, rho)|)`` node by node, with
    ``rho = ((alpha - x0) + i beta) / r``: the value and scale of the
    singular test in the unit variable, without the screen."""
    rho = complex((alpha - contour.center) / contour.radius, beta / contour.radius)
    return [
        (min(abs(u - rho), abs(u - rho.conjugate())), math.hypot(1.0, abs(rho)))
        for u in _unit_circle(contour.nodes)
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
    near a node, then targets 1 to 4 eps of the radius inside the circle (in
    the unit variable, ``|rho| = 1 - 4 eps`` or ``1 - eps``) at node angles
    and half way between, real ones among them, on odd and even N, on circles
    that include radius 1e-5 about 1, each also scaled by 2^-1000 and
    2^1000."""
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
                dist = radius * (1.0 - ulps * sys.float_info.epsilon)
                targets = [(center + dist, 0.0), (center - dist, 0.0)]  # real
                for half in (0.0, 0.5):  # at node k, or half way to node k + 1
                    for k in (0, 1, nodes // 4, nodes // 2):
                        t = 2.0 * math.pi * (k + half) / nodes
                        targets.append((center + dist * math.cos(t), abs(dist * math.sin(t))))
                for e in (0, -1000, 1000):
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
        count = 0

        def tracer(frame, event, arg):
            nonlocal count
            if frame.f_code is _kernel_weights.__code__:
                count += event == "line"
                return tracer
            return None

        sys.settrace(tracer)
        try:
            _kernel_weights(contour, 0.3, 0.5, 1e-10)
        finally:
            sys.settrace(None)
        return count

    assert traced_lines(16) == traced_lines(4096) > 0


@settings(max_examples=100, deadline=None)
@given(
    center=st.floats(-3.0, 3.0),
    radius=st.floats(0.5, 2.0),
    rho=st.one_of(st.floats(0.0, 0.999), st.floats(1.0 - 1e-6, 1.0, exclude_max=True)),
    angle=st.floats(0.0, math.pi),
    nodes=st.sampled_from((16, 17, 64)),
    k=st.integers(-1000, 1000),
)
def test_weights_have_degree_zero(center, radius, rho, angle, nodes, k):
    # x = u / (u - rho) and y = u / (u - conj rho), and the singular test of
    # |u - rho| beside |(1, rho)|, see the circle and the target only through
    # rho = ((alpha - x0) + i beta) / r.  Scaled together by 2^k, while every
    # input and alpha - x0 stay normal floats, they give the same weights and
    # the same decision at the least singular tolerance and one step either
    # side; targets up to 1e-6 of the radius from the circle reach the node
    # loop.
    alpha = center + rho * radius * math.cos(angle)
    beta = rho * radius * math.sin(angle)
    values = (center, radius, alpha, beta, alpha - center)
    assume(all(v == 0.0 or min(abs(v), abs(math.ldexp(v, k))) >= sys.float_info.min for v in values))
    contour = SliceContour(center, radius, Q23, nodes)
    assume(min(gap for gap, _ in _node_gaps(contour, alpha, beta)) > 0.0)
    scaled = SliceContour(math.ldexp(center, k), math.ldexp(radius, k), Q23, nodes)
    at = math.ldexp(alpha, k), math.ldexp(beta, k)
    assert _weights(scaled, *at, 0.0) == _weights(contour, alpha, beta, 0.0)
    tols = _threshold_tols(contour, alpha, beta)
    decisions = [_raises(contour, alpha, beta, tol) for tol in tols]
    assert decisions == [_raises(scaled, *at, tol) for tol in tols] == [False, True, True]


@pytest.mark.parametrize("rho", [0.9, 0.99, 0.999, 0.9999, 0.99999])
def test_near_contour_targets_at_the_least_radius(rho):
    # At the least normal radius, 2^-1022, a kernel denominator of degree 2
    # would underflow to 0; the weights, of degree 0 in the unit variable,
    # stay finite.  The trapezoid value of a target at rho of the radius
    # aliases by f(q) rho^N / (1 - rho^N) per complex kernel.
    radius, nodes = sys.float_info.min, 64
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


def test_target_an_ulp_inside_by_a_node_answers_at_tol_0():
    # An ulp inside the circle of radius 5 by node 13 of 64: no node's gap is
    # 0, so at tol 0 the node loop finds none singular, but rho^2 rounds onto
    # the node s = u_26 of the folded circle, where s - rho^2 would divide by
    # 0.  Wherever the nodes are tested the folded kernels divide by (u -
    # rho)(u + rho), 0 only at a gap of 0, so the quadrature answers as the
    # unfolded sum does; at the default tol the target is singular.
    poly = BiSlicePoly([E0, E1, E1])
    ci, cj = SliceContour(0.0, 5.0, Q23, 64), SliceContour(0.0, 5.0, Q13, 64)
    x = cone_point(1.4514233862723116, 4.784701678661044, Q12, Q13)
    rho = complex(x.alpha / 5.0, x.beta / 5.0)
    assert rho * rho == _unit_circle(64)[26] and min(g for g, _ in _node_gaps(ci, x.alpha, x.beta)) > 0.0
    got = cauchy_reconstruct(poly, ci, cj, x, 0.0)
    want = join(
        *(
            unfolded_component(f, c, x.alpha, x.beta, _target_unit(t, c))
            for f, c, t in zip(poly.split(), (ci, cj), (x.p, x.q))
        )
    )
    assert (got - want).magnitude() <= 1e-12 * want.magnitude()
    with pytest.raises(OnSingularSphere):
        cauchy_reconstruct(poly, ci, cj, x)


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


@pytest.mark.parametrize("radius", [1e-10, 1e-13, 1e-15])
def test_small_contour_about_1_keeps_its_digits(radius):
    # The kernel denominators are u - rho, rho formed from alpha - x0: formed
    # as (x0 + phi) - q_c they lost phi's low bits, and the errors read
    # 5.2e-8, 2.4e-4 and 1.3e-2.  The singular test is sized by the disc, so
    # the default tol passes the target 0.3 r from the center (sized by |x0|,
    # it raised OnSingularSphere).
    poly = BiSlicePoly([E0, E1, E12])
    ci, cj = SliceContour(1.0, radius, Q23, 64), SliceContour(1.0, radius, Q13, 64)
    x = ConePoint.from_element(E0 + E1 * (0.3 * radius))
    for tol in (0.0, EPS):
        error = (cauchy_reconstruct(poly, ci, cj, x, tol) - poly.eval(x)).magnitude()
        assert error < 1e-15


# -- the slice table: parity classes over the folded circle ---------------------


def _horner(column, z: complex) -> complex:
    """Horner at z on one real coefficient column, the leading one first."""
    w = complex(column[0])
    for c in column[1:]:
        w = w * z + c
    return w


def _per_node_classes(f: QuatPoly, contour: SliceContour) -> list:
    """The classes' values without weights, from Horner at ``z = x0 + r u``
    on the plain coefficients, node by node: f itself at u for odd N, and
    ``E = (f(u) + f(-u)) / 2``, ``O = (f(u) - f(-u)) / 2u`` at ``s = u^2``
    for even N, u the node of index m <= N/4."""
    x0, r, n = contour.center, contour.radius, contour.nodes
    columns = coefficient_columns(f)
    units = _unit_circle(n)[: len(cauchy._fold(n)[1])]
    if n % 2:
        return [[[_horner(c, x0 + r * u) for u in units] for c in columns]]
    even, odd = [], []
    for c in columns:
        plus = [_horner(c, x0 + r * u) for u in units]
        minus = [_horner(c, x0 - r * u) for u in units]
        even.append([(a + b) / 2 for a, b in zip(plus, minus)])
        odd.append([(a - b) / (2 * u) for a, b, u in zip(plus, minus, units)])
    return [even, odd] if len(f.coeffs) > 1 else [even]


def _check_against_horner_at_z(classes: list, f: QuatPoly, contour: SliceContour, degree: int) -> None:
    """Each value within ``8 (d + 1) eps c sum_n |a_n| (|x0| + r)^n`` of
    Horner at z (:func:`_per_node_classes`), the bound
    :func:`cauchy._slice_table` states for the table's and the reference's
    rounding together."""
    n = contour.nodes
    p, nodes = cauchy._fold(n)
    weights = [1.0 if m == 0 or 2 * m == n // p else 2.0 for m in range(len(nodes))]
    scales = horner_bound(f, abs(contour.center) + contour.radius)
    for got, want in zip(classes, _per_node_classes(f, contour)):
        for w, ref, scale in zip(got, want, scales):
            bound = 8 * (degree + 1) * sys.float_info.epsilon * scale
            for value, horner, c in zip(w, ref, weights):
                assert math.isfinite(abs(value)) and math.isfinite(abs(horner))
                assert abs(value - c * horner) <= c * bound


@pytest.mark.parametrize("nodes", [16, 17, 18, 19, 64, 65, 66, 67, 68, 512])
def test_table_classes_give_the_per_node_floats(nodes):
    # The parity classes node by node, float for float: Taylor rows about x0
    # in u = phi / r; for even N, E and O over s = u_{2m}, m <= N/4, each from
    # its own leading row; for odd N, f over u, k <= N//2; the weight folded
    # into the coefficients, exact while the values stay normal: coefficients
    # from 1e-3 to 1e3.  N mod 4 takes each of 0 ... 3.
    rng = random.Random(nodes)
    for degree in range(9):
        poly = BiSlicePoly(
            [
                CliffordElement([rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 3) for _ in range(8)])
                for _ in range(degree + 1)
            ]
        )
        contour = SliceContour(rng.uniform(-1, 1), rng.uniform(0.5, 2), Q12, nodes)
        table = _node_table(poly, contour)
        assert len(table) == (1 if nodes % 2 or degree == 0 else 2)
        assert all(len(c) == 8 and len(w) == len(cauchy._fold(nodes)[1]) for c in table for w in c)
        for k, component in enumerate(poly.split()):
            got = [c[4 * k : 4 * k + 4] for c in table]
            want = parity_class_columns(component, contour.center, contour.radius, nodes)
            assert [[_bits(w) for w in c] for c in got] == [[_bits(w) for w in c] for c in want]
            _check_against_horner_at_z(got, component, contour, degree)


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.sampled_from((16, 17, 18, 64, 66, 67, 68, 512)),
    degree=st.integers(0, 8),
    rho=st.floats(0.0, 0.9),
    angle=st.floats(0.0, math.pi),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(nodes=512, degree=0, rho=0.0, angle=0.0, real=False, seed=695)  # 33 eps S
def test_folded_sum_matches_the_unfolded_per_node_sum(nodes, degree, rho, angle, real, seed):
    # The fold regroups the half-circle sum of x(u) f(u), Horner at z, node
    # by node (``unfolded_component``), into K(s) (E + rho O) over s = u^2;
    # both are the one trapezoid sum, so per component they differ by
    # rounding: at most (8 (d + 1) + 3N/8) eps S / (1 - |rho|), S the largest
    # sum_n |a_n| (|x0| + r)^n of the four columns.  8 (d + 1) is the tables'
    # bound against each other, times the kernels' size 1 / (1 - |rho|);
    # 3N/8 bounds the two sums' recursive summation of terms up to 2 S / (1 -
    # |rho|), N/8 for the fold's N/4 + 1 and N/4 for the unfolded N/2 + 1
    # (Higham 2002, sec. 4.2).  The largest seen is 33 eps S, at 512 nodes
    # and degree 0 with the target at the centre, where every term is the
    # same and the summation errors add up; seeded random targets read at
    # most 3.5 eps S / (1 - |rho|).
    rng = random.Random(seed)
    poly = BiSlicePoly(
        [CliffordElement([rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 3) for _ in range(8)]) for _ in range(degree + 1)]
    )
    center, radius = rng.uniform(-1, 1), rng.uniform(0.5, 2)
    alpha, beta = center + rho * radius * math.cos(angle), rho * radius * math.sin(angle)
    x = ConePoint(alpha, 0.0, None, None) if real else cone_point(
        alpha, beta, rand_unit_imaginary(rng), rand_unit_imaginary(rng)
    )
    ci = SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
    cj = SliceContour(center, radius, rand_unit_imaginary(rng), nodes)
    got = cauchy_reconstruct(poly, ci, cj, x, 0.0)
    rho_abs = abs(complex(x.alpha - center, x.beta)) / radius
    for f, c, target, value in zip(poly.split(), (ci, cj), (x.p, x.q), split(got)):
        want = unfolded_component(f, c, x.alpha, x.beta, _target_unit(target, c))
        size = max(horner_bound(f, abs(center) + radius))
        bound = (8 * (degree + 1) + 3 * nodes / 8) * sys.float_info.epsilon * size / (1.0 - rho_abs)
        assert (value - want).modulus() <= bound


@pytest.mark.parametrize("nodes", [64, 65, 66])
def test_table_off_center_keeps_the_range_of_horner_at_z(capsys, nodes):
    # 1e300 x^40 about 1 at radius 0.01: |f| <= 1.01^40 1e300, about 1.5e300,
    # on the circle, but the Taylor coefficient b_20 = C(40, 20) 1e300 is
    # past the float maximum.  The rows are b_k r^k, so the table is finite,
    # within the Horner-type bound of Horner at z, and cauchy-verify answers.
    big = "1" + "0" * 300
    poly = BiSlicePoly([ZERO] * 40 + [CliffordElement([1e300] + [0.0] * 7)])
    contour = SliceContour(1.0, 0.01, Q23, nodes)
    table = _node_table(poly, contour)
    fp = poly.split()[0]
    got = [c[:4] for c in table]
    want = parity_class_columns(fp, 1.0, 0.01, nodes)
    assert [[_bits(w) for w in c] for c in got] == [[_bits(w) for w in c] for c in want]
    _check_against_horner_at_z(got, fp, contour, 40)
    argv = ["cauchy-verify", "--poly", "coeffs: [" + "0, " * 40 + big + "]", "--center", "1"]
    argv += ["--radius", "0.01", "--at", "1 + 0.001e1", "--nodes", str(nodes)]
    assert run(argv) == 0
    out = capsys.readouterr().out
    error = float(out.split("error: ")[1].split()[0])
    assert error <= 1e-14 * 1.001**40 * 1e300


def test_folded_weights_near_the_float_maximum_stay_a_named_error(capsys):
    # Doubled, the coefficients 1e308 overflow where only the doubled values
    # did; either way the node values are not finite, and cauchy-verify names it.
    big = "1" + "0" * 308
    poly = BiSlicePoly([CliffordElement([-1e308] + [0.0] * 7), CliffordElement([1e308] + [0.0] * 7)])
    contour = SliceContour(0.0, 2.0, Q23, 64)
    table = _node_table(poly, contour)
    want = per_node_slice_columns(poly.split()[0], _zs(contour), 64)
    assert not all(math.isfinite(abs(w)) for c in table for w in c[0])
    assert not all(math.isfinite(abs(w)) for w in want[0])
    argv = ["cauchy-verify", "--poly", f"coeffs: [-{big}, {big}]", "--at", "0.5e1"]
    assert run(argv + ["--radius", "2", "--nodes", "64"]) == 1
    assert capsys.readouterr().err.startswith("error: NonFiniteResult: ")


# -- the unit circle, kept per node count ---------------------------------------


def _bits(zs) -> bytes:
    """The floats of a complex column, signed zeros included."""
    return array("d", [x for z in zs for x in (z.real, z.imag)]).tobytes()


@pytest.mark.parametrize("nodes", [16, 17, 18, 19, 64, 65, 66, 512, 65536])
def test_cached_unit_circle_gives_the_per_node_floats(nodes):
    # e^{i t} from the cache against cos t, sin t per node: the quarter
    # circle k <= N/4 of an even N, the half circle of an odd N.  An even N's
    # other nodes are antipodes, u_{N/2-k} = -conj(u_k).
    front = nodes // 4 if nodes % 2 == 0 else nodes // 2
    thetas = [2.0 * math.pi * k / nodes for k in range(front + 1)]
    units = _unit_circle(nodes)
    assert len(units) == nodes // 2 + 1
    assert _bits(units[: front + 1]) == _bits([complex(math.cos(t), math.sin(t)) for t in thetas])
    if nodes % 2 == 0:
        back = range(front + 1, nodes // 2 + 1)
        assert _bits([units[j] for j in back]) == _bits([-units[nodes // 2 - j].conjugate() for j in back])


def test_unit_circle_cache_holds_at_most_its_bound():
    for nodes in (16, 17, 64, 65, 512, 1024):
        _unit_circle(nodes)
    info = _unit_circle.cache_info()
    assert info.maxsize == 4 and info.currsize <= 4
    _unit_circle(1024)  # the newest is kept
    assert _unit_circle.cache_info().hits == info.hits + 1
