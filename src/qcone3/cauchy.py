"""Cauchy kernel, slice contours, and numerical reproduction checks.

The quaternionic kernel is ``S(s, q) = (q^2 - 2 Re(s) q + |s|^2)^{-1}
(conj(s) - q)``; it reduces to ``(s - q)^{-1}`` when s and q commute and is
singular exactly when q lies on the 2-sphere of s (same real part and
imaginary modulus).  Joining the two component kernels gives the two-slice
kernel, whose singular set is the corresponding product of spheres.

Contours are circles with real center inside a slice plane, traversed
counterclockwise.  With the parametrization ``s = x0 + r e^{I t}`` the
oriented slice measure is ``r e^{I t} dt``, and the reproduction integral

    value = (1/2 pi) integral S(s, p) * (r e^{I t}) * F(s) dt

recovers polynomial values at any point whose distance from the center is
below the radius, regardless of the point's own slice unit.  All quadrature
is the trapezoid rule on the periodic parameter, which converges
geometrically for these integrands.

For polynomials the node loops run in complex arithmetic on the slice
plane, which is exact because every node ``s = x0 + r e^{I t}`` lies in C_I.
Write ``phi = r e^{i t}`` and ``z = x0 + phi``, and for a complex 4-vector
``v`` let ``R(v) = Re v + I Im v``; left multiplication by an element of C_I
is then complex multiplication, ``(a + I b) R(v) = R((a + i b) v)``.

* ``F(s) = R(w)``, where ``w`` is four complex Horner evaluations at ``z``,
  one per real coefficient column.
* For a target ``q = alpha + J beta`` (beta >= 0, J = Im q / |Im q|; any unit
  when q is real) put ``q_c = alpha + i beta``.  The kernel has real
  coefficients in q, so reading J as i or as -i turns ``S(s, q) r e^{I t}``
  into the two complex Cauchy kernels ``x = phi / (z - q_c)`` and ``y = phi /
  (z - conj q_c)``, and each node contributes ``R(g w) + J R(h w)`` with
  ``g = (x + y)/2`` and ``h = (x - y)/2i``.
* The nodes ``t_k = 2 pi k / N`` pair as ``phi_{N-k} = conj(phi_k)``, where
  ``x`` and ``y`` trade places, conjugated, and ``w`` (real columns)
  conjugates, so every N-node sum is real, ``sum' c_k Re(.)`` over ``k = 0
  ... N//2`` with ``c_k`` 1 at k = 0 and (N even) N/2, else 2.  With ``w``
  for ``c_k w``, ``X = sum x w`` and ``Y = sum y w``, the reconstruction is
  ``((Re X + Re Y) + J (Im X - Im Y)) / 2N``, free of I as the formula says,
  and the closed integral is ``I Re(sum phi w) * 2 pi / N``.  The sums run
  in C, ``sum(map(mul, ...), 0j)``.

The weights depend on the target only through ``(alpha, beta)``, which a
cone point's split components ``alpha + beta I1`` and ``alpha + beta I2``
share.  One weight pass per circle serves both components when their
contours share center, radius and node count, as in every ``cauchy-verify``
call; each component then sums against its own ``c_k w``.  The pass divides
and sums without squaring, so it has degree 0: the circle and the target
scaled by a power of two give the same floats.  Its singular test has
degree 1: a node is singular where ``min(|z - q_c|, |z - conj q_c|)`` (which
covers nodes k and N - k) is negligible beside ``|(z, q)|``.  The disc
decides it for most targets in O(1): every node lies on the circle ``|z -
x0| = r``, so it is at least ``r - |q_c - x0|`` from q_c and from conj q_c,
and when that margin, less a rounding slack of ``eps (8 (|x0| + r) + 16
bound)``, exceeds the largest bound ``tol |(|x0| + r, q)|``, no node can be
singular.  Only targets within about ``1.5 tol (|x0| + r)`` of the circle
are tested node by node, and the answer is the node loop's either way
(:func:`_kernel_weights`).

Both quadratures read a node table over k = 0 ... N//2: ``phi`` and ``z``
once per circle, and ``c_k w`` per split component, 202 bytes per contour
node (tracemalloc) when the two contours share center, radius and node count
(243 otherwise), so at most 13 MB (16 MB) at :data:`MAX_NODES`, and a
reconstruction's columns ``x, y`` 40 (2.5 MB) while it runs.  The module
keeps the table of its last (polynomial, contour_i, contour_j) call, matched
by identity, and replaces it in one assignment, so concurrent callers see a
whole entry or none.

Contours accept at most :data:`MAX_NODES` nodes, and one quadrature at most
:data:`MAX_NODE_TERMS` nodes times coefficients, so no request does
unbounded work.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from operator import mul, sub, truediv
from typing import NamedTuple

from .clifford3 import EPS, Q23, CliffordElement, Quat, _scaled, _times_power_of_two, join, negligible
from .bislice import BiSlicePoly, QuatPoly, central_differences
from .errors import (
    InputTooLarge,
    InvalidContour,
    NotImaginaryUnit,
    OnSingularSphere,
    PointOutsideContour,
)
from .qsplit import ConePoint

DEFAULT_NODES = 512
MIN_NODES = 16
MAX_NODES = 65536
#: Most nodes x coefficients one contour's quadrature may evaluate (about
#: 0.12 us each, as only nodes k <= N//2 are evaluated: 0.25 s per contour,
#: measured with Python 3.11 on a 2-CPU shared host).
MAX_NODE_TERMS = 2**21
#: Machine epsilon, 2^-52: the unit of the singular screen's rounding slack.
_MACHINE_EPS = sys.float_info.epsilon


class _ContourFields(NamedTuple):
    center: float
    radius: float
    unit: Quat
    nodes: int


class SliceContour(_ContourFields):
    """Circle x0 + r e^{I t} inside the plane of the unit I."""

    __slots__ = ()

    def __new__(
        cls, center: float, radius: float, unit: Quat, nodes: int = DEFAULT_NODES
    ) -> "SliceContour":
        if not math.isfinite(center):
            raise InvalidContour(f"contour center must be finite, got {center}")
        if not (math.isfinite(radius) and radius > 0):
            raise InvalidContour(
                f"contour radius must be positive and finite, got {radius}"
            )
        # Every node and every target inside the disc lies within ``reach`` of
        # 0.  These bounds keep squares of the contour's size in range (4
        # reach^2 finite, radius^2 normal); the weight pass, of degree 0,
        # would need less.
        reach = abs(center) + radius
        if not (sys.float_info.min <= radius * radius and math.isfinite(4.0 * reach * reach)):
            raise InvalidContour(
                f"contour of center {center:.6g}, radius {radius:.6g}: its kernel "
                "values would overflow or underflow"
            )
        if not MIN_NODES <= nodes <= MAX_NODES:
            raise InvalidContour(
                f"contour needs {MIN_NODES} to {MAX_NODES} quadrature nodes, "
                f"got {nodes}"
            )
        if not unit.is_unit_imaginary():
            raise NotImaginaryUnit("contour unit must square to -1")
        return super().__new__(cls, center, radius, unit, nodes)

    def contains(self, q: Quat) -> bool:
        dist = math.hypot(q.re() - self.center, q.im_modulus())
        return dist < self.radius


def cauchy_kernel_quat(s: Quat, q: Quat, tol: float = EPS) -> Quat:
    """Kernel value; fails on the sphere of s, where the distance between
    ``(Re q, |Im q|)`` and ``(Re s, |Im s|)``, of degree 1 in (s, q), is
    negligible beside ``|(s, q)|``.

    With ``q = a + v`` and ``s = b + u`` the denominator is ``(a - b)^2 +
    (|u| - |v|)(|u| + |v|) + 2 (a - b) v``, free of the cancellation in
    ``q^2 - 2 b q + |s|^2`` near the sphere.  s and q are scaled exactly by
    the power of two that brings their largest coordinate into [1/2, 1), and
    the value, of degree -1, back: past 1e+-154, where the squares leave the
    range, the value is still the kernel's."""
    e, (sc, qc) = _scaled(s, q)
    gap, u, v = qc.re() - sc.re(), sc.im_modulus(), qc.im_modulus()
    if negligible(math.hypot(gap, v - u), math.hypot(*sc, *qc), 1, tol):
        raise _singular(s.re(), s.im_modulus())
    denom = qc.im() * (2.0 * gap) + (gap * gap + (u - v) * (u + v))
    return _times_power_of_two(denom.inverse() * (sc.conj() - qc), -e)


def _singular(re: float, im_modulus: float) -> OnSingularSphere:
    return OnSingularSphere(
        f"kernel singular: point on the sphere of Re={re:.6g}, |Im|={im_modulus:.6g}"
    )


def cauchy_kernel(s: ConePoint, x: ConePoint, tol: float = EPS) -> CliffordElement:
    """Two-slice kernel, the join of the component kernels."""
    try:
        kp = cauchy_kernel_quat(s.p, x.p, tol)
    except OnSingularSphere as exc:
        raise OnSingularSphere(f"first component: {exc}") from None
    try:
        kq = cauchy_kernel_quat(s.q, x.q, tol)
    except OnSingularSphere as exc:
        raise OnSingularSphere(f"second component: {exc}") from None
    return join(kp, kq)


def _slice_table(poly: QuatPoly, contour: SliceContour, circle: tuple = ()) -> tuple:
    """``(phi, z, c w0, c w1, c w2, c w3)``, columns over the nodes k <= N//2,
    of weight c; the first two depend only on the circle."""
    x0, r, n = contour.center, contour.radius, contour.nodes
    if not circle:
        thetas = [2.0 * math.pi * k / n for k in range(n // 2 + 1)]
        phis = [complex(r * math.cos(t), r * math.sin(t)) for t in thetas]
        circle = phis, [x0 + phi for phi in phis]
    # Horner from the leading coefficient: the same bits as from 0j * z + c.
    lead, *rows = [c.as_tuple() for c in reversed(poly.coeffs)]
    lead = tuple(map(complex, lead))
    ws = [], [], [], []
    put0, put1, put2, put3 = (w.append for w in ws)
    for k, z in enumerate(circle[1]):
        w0, w1, w2, w3 = lead
        for c0, c1, c2, c3 in rows:
            w0 = w0 * z + c0
            w1 = w1 * z + c1
            w2 = w2 * z + c2
            w3 = w3 * z + c3
        if 0 < k < n - k:  # node k stands for itself and its conjugate N - k
            w0, w1, w2, w3 = 2.0 * w0, 2.0 * w1, 2.0 * w2, 2.0 * w3
        put0(w0)
        put1(w1)
        put2(w2)
        put3(w3)
    return (*circle, *ws)


#: ``(poly, contour_i, contour_j, table)`` of the last quadrature, replaced whole.
_last_table: tuple = ()


def _node_table(poly: BiSlicePoly, ci: SliceContour, cj: SliceContour) -> tuple:
    """Slice tables of the two split components, reused while the polynomial
    and both contours are the same objects as in the previous call."""
    global _last_table
    last = _last_table
    if last and last[0] is poly and last[1] is ci and last[2] is cj:
        return last[3]
    # Let go of the old table before building the new one: two are never alive.
    _last_table = last = ()
    fp, fq = poly.split()
    side_i = _slice_table(fp, ci)
    same = ci[:2] == cj[:2] and ci.nodes == cj.nodes  # center, radius, nodes
    table = side_i, _slice_table(fq, cj, side_i[:2] if same else ())
    _last_table = (poly, ci, cj, table)
    return table


def _closed_integral(side: tuple, contour: SliceContour) -> Quat:
    """Trapezoid value of the closed integral of ds poly(s) from its slice table;
    the differential I r e^{I t} dt stays left of the integrand."""
    v = [sum(map(mul, side[0], w), 0j).real for w in side[2:]]
    return contour.unit * Quat(*v) * (2.0 * math.pi / contour.nodes)


def _check_work(poly: BiSlicePoly, *contours: SliceContour) -> None:
    terms = len(poly.coeffs)
    for contour in contours:
        if contour.nodes * terms > MAX_NODE_TERMS:
            raise InputTooLarge(
                f"{contour.nodes} nodes x {terms} coefficients is more than "
                f"MAX_NODE_TERMS = {MAX_NODE_TERMS}"
            )


def contour_integral_vanishes(
    poly: BiSlicePoly, contour_i: SliceContour, contour_j: SliceContour
) -> tuple[float, float]:
    """Magnitudes of the closed integrals of the two split components."""
    _check_work(poly, contour_i, contour_j)
    side_i, side_j = _node_table(poly, contour_i, contour_j)
    return (
        _closed_integral(side_i, contour_i).modulus(),
        _closed_integral(side_j, contour_j).modulus(),
    )


def _kernel_weights(
    circle: tuple, contour: SliceContour, alpha: float, beta: float, tol: float
) -> tuple:
    """Columns ``(x, y)`` of the kernels ``phi / (z - q_c)`` and ``phi / (z -
    conj q_c)`` over the nodes of a circle of the contour's center x0 and
    radius r, for targets at ``alpha + J beta``.

    A node is singular where ``min(|z - q_c|, |z - conj q_c|)`` is negligible
    beside ``|(z, q)|``.  The disc settles that for most targets: q_c and conj
    q_c lie ``d = |q_c - x0|`` from the center, so every point of the circle
    is at least ``r - d`` from both, and every node's bound is about ``tol
    |(reach, q)|`` or less, with ``reach = |x0| + r``.  The rounding slack,
    with eps = 2^-52 and cos and sin within an ulp:

    * a node, ``x0 + (r cos t + i r sin t)``, is within 2.5 eps reach of the
      circle; the computed ``r - d`` is at most 2.5 eps r too large, and a
      computed gap at most eps gap too small: 6.5 eps reach in all;
    * a node's computed bound, through ``|z|``, the hypot and the product
      with tol, exceeds the computed ``bound`` by at most 7.5 eps bound;
    * radius >= 2^-511 puts underflow far below eps reach.

    So no node can be singular when ``r - d - eps (8 reach + 16 bound)``
    exceeds ``bound``, and the nodes are tested one by one only when it does
    not: the answer is the node loop's.  (The targets of
    ``test_screened_singular_test_decides_as_the_node_loop`` need at most
    0.48 eps reach.)
    """
    phis, zs = circle
    q_c = complex(alpha, beta)
    q_bar, q_abs = q_c.conjugate(), abs(q_c)
    x0, r = contour.center, contour.radius
    reach = abs(x0) + r
    bound = tol * math.hypot(reach, q_abs)
    margin = r - math.hypot(alpha - x0, beta)
    if margin - _MACHINE_EPS * (8.0 * reach + 16.0 * bound) <= bound:
        for z in zs:
            gap = min(abs(z - q_c), abs(z - q_bar))
            if negligible(gap, math.hypot(abs(z), q_abs), 1, tol):
                raise _singular(z.real, abs(z.imag))
    return tuple([list(map(truediv, phis, map(sub, zs, repeat(c)))) for c in (q_c, q_bar)])


def _accumulate(weights: tuple, side: tuple, unit_j: Quat, nodes: int) -> Quat:
    """``(Re sum g w + J Re sum h w) / N`` for one split component, as
    ``((Re X + Re Y) + J (Im X - Im Y)) / 2N`` from ``X, Y = sum x w, sum y w``."""
    xs, ys = weights
    sx = [sum(map(mul, xs, w), 0j) for w in side[2:]]
    sy = [sum(map(mul, ys, w), 0j) for w in side[2:]]
    g = Quat(*[a.real + b.real for a, b in zip(sx, sy)])
    h = Quat(*[a.imag - b.imag for a, b in zip(sx, sy)])
    return (g + unit_j * h) / (2 * nodes)


def _slice_unit(target: Quat, contour: SliceContour) -> Quat:
    """The target's own unit ``Im / |Im|``; any unit serves a real target."""
    q_im = target.im_modulus()
    return target.im() / q_im if q_im > 0.0 else contour.unit


def cauchy_reconstruct(
    poly: BiSlicePoly,
    contour_i: SliceContour,
    contour_j: SliceContour,
    x: "ConePoint | CliffordElement",
    tol: float = EPS,
) -> CliffordElement:
    """Reproduce poly(x) from its values on two slice circles."""
    _check_work(poly, contour_i, contour_j)
    point = x if isinstance(x, ConePoint) else ConePoint.from_element(x, tol)
    if not contour_i.contains(point.p):
        raise PointOutsideContour("first component outside its contour disc")
    if not contour_j.contains(point.q):
        raise PointOutsideContour("second component outside its contour disc")
    side_i, side_j = _node_table(poly, contour_i, contour_j)
    weights = _kernel_weights(side_i[:2], contour_i, point.alpha, point.beta, tol)
    vp = _accumulate(weights, side_i, _slice_unit(point.p, contour_i), contour_i.nodes)
    if side_j[0] is not side_i[0]:  # another circle: its own weight pass
        del weights  # one pass's columns alive at a time
        weights = _kernel_weights(side_j[:2], contour_j, point.alpha, point.beta, tol)
    vq = _accumulate(weights, side_j, _slice_unit(point.q, contour_j), contour_j.nodes)
    return join(vp, vq)


def kernel_regularity_residual(
    s: ConePoint, x: ConePoint, h: float = 1e-4
) -> tuple[float, float]:
    """Finite-difference regularity residuals of the kernel.

    Returns (left, right): the left residual applies the two-slice operator
    in the second argument along the slices of x; the right residual applies
    the right-sided operator ``(d_u + d_v (.) I)/2`` in the first argument
    along the slices of s.  Both are O(h^2) away from the singular spheres.
    """

    def slice_operator(fixed: Quat, at: ConePoint, unit: Quat, right_sided: bool) -> Quat:
        def kernel(u: float, v: float) -> Quat:
            y = Quat(u) + unit * v
            return cauchy_kernel_quat(y, fixed) if right_sided else cauchy_kernel_quat(fixed, y)

        du, dv = central_differences(kernel, at.alpha, at.beta, h)
        return (du + (dv * unit if right_sided else unit * dv)) * 0.5

    # A real point has no slice of its own: it is differenced along the other
    # point's slice, or along e23 when both are real.
    left = join(
        slice_operator(s.p, x, x.i1 or s.i1 or Q23, False),
        slice_operator(s.q, x, x.i2 or s.i2 or Q23, False),
    ).magnitude()
    right = join(
        slice_operator(x.p, s, s.i1 or x.i1 or Q23, True),
        slice_operator(x.q, s, s.i2 or x.i2 or Q23, True),
    ).magnitude()
    return left, right
