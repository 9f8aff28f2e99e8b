"""Cauchy kernel, slice contours, and numerical reproduction checks.

The quaternionic kernel is ``S(s, q) = (q^2 - 2 Re(s) q + |s|^2)^{-1}
(conj(s) - q)``; it reduces to ``(s - q)^{-1}`` when s and q commute and is
singular exactly when q lies on the 2-sphere of s (same real part and
imaginary modulus).  Joining the two component kernels gives the two-slice
kernel, whose singular set is the corresponding product of spheres.

Contours are circles with real center inside a slice plane, traversed
counterclockwise.  A curve in a slice of the cone splits into the same circle
``x0 + r e^{i t}`` in both components, so the two split components' contours
share center, radius and node count and differ only in their units; the
quadratures refuse two contours that do not (:class:`InvalidContour`).  With
the parametrization ``s = x0 + r e^{I t}`` the oriented slice measure is ``r
e^{I t} dt``, and the reproduction integral

    value = (1/2 pi) integral S(s, p) * (r e^{I t}) * F(s) dt

recovers polynomial values at any point whose distance from the center is
below the radius, regardless of the point's own slice unit.  All quadrature
is the trapezoid rule on the periodic parameter, which converges
geometrically for these integrands.

For polynomials the node loops run in complex arithmetic on the slice
plane, which is exact because every node ``s = x0 + r e^{I t}`` lies in C_I,
and in the unit variable ``u = (s - x0) / r``: the nodes are the unit circle
``u_k = e^{i t_k}``, the same floats for every contour of N nodes, and the
contour's scale enters only the table's rows and one factor of the closed
integral.  For a complex 4-vector ``v`` let ``R(v) = Re v + I Im v``; left
multiplication by an element of C_I is then complex multiplication, ``(a +
I b) R(v) = R((a + i b) v)``.

* ``F(s) = R(w)``, where ``w`` is four complex polynomial values at ``x0 +
  r u``, one per real coefficient column.
* For a target ``q = alpha + J beta`` (beta >= 0, J = Im q / |Im q|; any unit
  when q is real) put ``rho = ((alpha - x0) + i beta) / r``, the target in
  the unit variable.  The kernel has real coefficients in q, so reading J as
  i or as -i turns ``S(s, q) r e^{I t}`` into the two complex Cauchy kernels
  ``x = u / (u - rho)`` and ``y = u / (u - conj rho)``, and each node
  contributes ``R(g w) + J R(h w)`` with ``g = (x + y)/2`` and ``h = (x -
  y)/2i``.
* The nodes pair as ``u_{N-k} = conj(u_k)``, where ``x`` and ``y`` trade
  places, conjugated, and ``w`` (real columns) conjugates, so every N-node
  sum is real, ``sum' c_k Re(.)`` over ``k = 0 ... N//2`` with ``c_k`` 1 at
  k = 0 and (N even) N/2, else 2.  The weight is folded into the
  coefficients: Horner on ``2 f`` is exactly ``2 w`` while the values stay
  normal.  With ``w`` for ``c_k w``, ``X = sum x w`` and ``Y = sum y w``, the
  reconstruction is ``((Re X + Re Y) + J (Im X - Im Y)) / 2N``, free of I as
  the formula says, and the closed integral is ``I r Re(sum u w) * 2 pi /
  N``.  The sums run in C, ``sum(map(mul, ...), 0j)``.

The weights depend on the target only through rho, which a cone point's
split components ``alpha + beta I1`` and ``alpha + beta I2`` share, so one
weight pass over the unit circle serves both; each component then sums
against its own ``c_k w``.  rho is formed from ``alpha - x0``, so a radius
small beside the center keeps its digits.  The pass and its singular test
see the contour and the target only through rho and square nothing, so both
have degree 0: the circle and the target scaled by a power of two give the
same floats and the same decision.  A node is singular where ``min(|u -
rho|, |u - conj rho|)`` (which covers nodes k and N - k) is negligible
beside ``|(1, rho)|``, the disc's own size ``|(r, q_c - x0)| / r`` with
``q_c = alpha + i beta``.  That bound is one float for every node, and every
node is at least ``1 - |rho|`` from rho and from conj rho, so when that
margin, less a rounding slack of ``8 eps``, exceeds the bound, no node can
be singular.  Only targets within about ``1.4 tol r`` of the circle are
tested node by node, and the answer is the node loop's either way
(:func:`_kernel_weights`).

Both quadratures read one node table over k = 0 ... N//2: ``c_k w`` for
each split component, eight complex columns, 162 bytes per contour node
(tracemalloc), so at most 10.6 MB at :data:`MAX_NODES`, and a
reconstruction's columns ``x, y`` 40 (2.5 MB) while it runs.  The columns
come from f's Taylor rows about x0 in u (Horner in u once per table,
O(d^2)), split into even and odd parts, ``f(x0 + r u) = E(u^2) + u
O(u^2)``.  No row exceeds the largest of f's Horner partials on the circle,
so the table stays finite where Horner at ``x0 + r u`` does, short of a
factor of about 2 (d + 1), though the Taylor coefficients themselves may
overflow.  For even N the antipode ``-conj(u_k)`` of node k is node N/2 - k,
and as each column has real coefficients its value is ``conj(E - u O)``:
one pass over the quarter circle k <= N/4, about d/2 Horner steps in
``u^2`` per table node, fills both components' columns on both halves
(:func:`_slice_pass`, :func:`_slice_table`).  The unit circle is kept for
the last four node counts, about 1.3 MB an entry at :data:`MAX_NODES`
(:func:`_unit_circle`).
The module keeps the table of its last (polynomial, contour) call, matched
by identity, and replaces it in one assignment, so concurrent callers see a
whole entry or none.

Contours accept a finite center, a radius that is a normal float, and at
most :data:`MAX_NODES` nodes, and one quadrature at most
:data:`MAX_NODE_TERMS` nodes times coefficients for the node pass and
:data:`MAX_TAYLOR_TERMS` coefficients for the O(d^2) shift to the center,
so no request does unbounded work.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import islice, repeat
from operator import mul, sub, truediv
from typing import TYPE_CHECKING, NamedTuple

from .clifford3 import EPS, Q23, CliffordElement, Quat, _new, _scaled, _times_power_of_two, join, negligible
from .errors import (
    InputTooLarge,
    InvalidContour,
    NotImaginaryUnit,
    OnSingularSphere,
    PointOutsideContour,
)
from .qsplit import ConePoint, _slice_point

if TYPE_CHECKING:  # annotations only: the kernel alone loads no bislice
    from .bislice import BiSlicePoly, QuatPoly

DEFAULT_NODES = 512
MIN_NODES = 16
MAX_NODES = 65536
#: Most nodes x coefficients one contour's quadrature may evaluate in its
#: node pass (a node table at 8192 nodes and 256 coefficients, the shift to
#: the center included, took 0.38 to 0.57 s with Python 3.11 on a 2-CPU
#: shared host).
MAX_NODE_TERMS = 2**21
#: Most coefficients one quadrature may shift to the contour's center: the
#: shift takes about terms^2 / 2 row steps at any node count (0.15 to 0.18 s
#: at 512 coefficients on the same host, four times that at twice as many).
MAX_TAYLOR_TERMS = 512
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
        # The quadrature puts the target in the unit variable, dividing its
        # offset from the center (below the radius) by the radius: a subnormal
        # radius would leave the offset fewer digits than a float holds.
        if radius < sys.float_info.min:
            raise InvalidContour(
                f"contour radius must be a normal float, at least "
                f"{sys.float_info.min:.6g}, got {radius:.6g}"
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


@lru_cache(maxsize=4)
def _unit_circle(n: int) -> tuple:
    """``e^{i t_k}`` for ``t_k = 2 pi k / N``, k <= N//2: the nodes in the
    unit variable of every contour of N nodes, so no contour computes a
    cosine or sine of its own.

    For even N only the quarter circle k <= N//4 takes a cosine and sine;
    the rest is its antipodes, ``e^{i t_{N/2-k}} = -conj(e^{i t_k})``, so the
    table's antipodal nodes and the kernel weights' nodes are the same
    floats."""
    front = n // 4 if n % 2 == 0 else n // 2
    units = [complex(math.cos(t), math.sin(t)) for t in (2.0 * math.pi * k / n for k in range(front + 1))]
    if n % 2 == 0:
        units += [-u.conjugate() for u in reversed(units[: n // 2 - front])]
    return tuple(units)


def _slice_pass(ws: tuple, backs, rows: list, points) -> None:
    """Append ``g(u) = E(u^2) + u O(u^2)`` at each point u to the eight
    columns ``ws``, four of the first component, then four of the second;
    with ``backs`` (else None), append ``E - u O`` to its eight columns,
    whose conjugate is the value at the antipode ``-conj(u)``.

    ``rows`` holds E's eight coefficient columns and then O's, sixteen a
    row, from the leading one down (:func:`_parity_rows`); Horner over
    ``u^2`` starts from the leading row as complex numbers."""
    lead, *rows = rows
    lead = tuple(map(complex, lead))
    put0, put1, put2, put3, put4, put5, put6, put7 = (w.append for w in ws)
    if backs is not None:
        back0, back1, back2, back3, back4, back5, back6, back7 = (b.append for b in backs)
    for p in points:
        s = p * p
        u0, u1, u2, u3, u4, u5, u6, u7, v0, v1, v2, v3, v4, v5, v6, v7 = lead
        for a0, a1, a2, a3, a4, a5, a6, a7, b0, b1, b2, b3, b4, b5, b6, b7 in rows:
            u0 = u0 * s + a0
            u1 = u1 * s + a1
            u2 = u2 * s + a2
            u3 = u3 * s + a3
            u4 = u4 * s + a4
            u5 = u5 * s + a5
            u6 = u6 * s + a6
            u7 = u7 * s + a7
            v0 = v0 * s + b0
            v1 = v1 * s + b1
            v2 = v2 * s + b2
            v3 = v3 * s + b3
            v4 = v4 * s + b4
            v5 = v5 * s + b5
            v6 = v6 * s + b6
            v7 = v7 * s + b7
        v0 = p * v0
        v1 = p * v1
        v2 = p * v2
        v3 = p * v3
        v4 = p * v4
        v5 = p * v5
        v6 = p * v6
        v7 = p * v7
        put0(u0 + v0)
        put1(u1 + v1)
        put2(u2 + v2)
        put3(u3 + v3)
        put4(u4 + v4)
        put5(u5 + v5)
        put6(u6 + v6)
        put7(u7 + v7)
        if backs is not None:
            back0(u0 - v0)
            back1(u1 - v1)
            back2(u2 - v2)
            back3(u3 - v3)
            back4(u4 - v4)
            back5(u5 - v5)
            back6(u6 - v6)
            back7(u7 - v7)


def _rows(fp: QuatPoly, fq: QuatPoly) -> list:
    """Both components' coefficient rows, eight columns side by side,
    leading one first."""
    return [a.as_tuple() + b.as_tuple() for a, b in zip(reversed(fp.coeffs), reversed(fq.coeffs))]


def _taylor_rows(rows: list, x0: float, r: float) -> list:
    """The rows ``c_d ... c_0`` of ``f(x0 + r u)`` in u, leading one first,
    from f's rows: Horner in u, ``P (x0 + r u) + a`` a step, O(d^2).

    ``c_k`` is f's Taylor coefficient ``b_k`` about x0 times ``r^k``.  Each
    partial P is a Horner partial of f along the circle ``x0 + r u``, |u| =
    1, and no coefficient of P exceeds P's largest value there, so the rows
    stay finite where those partials do; ``b_k`` alone may overflow."""
    rows = iter(rows)
    out = [next(rows)]
    for a in rows:
        hi = out[0]
        new = [tuple([r * p for p in hi])]
        for lo in out[1:]:
            new.append(tuple([r * p + x0 * q for p, q in zip(lo, hi)]))
            hi = lo
        new.append(tuple([x0 * q + c for q, c in zip(hi, a)]))
        out = new
    return out


def _parity_rows(rows: list) -> list:
    """The rows of E and O for :func:`_slice_pass`, leading one first, from
    rows ``c_d ... c_0``: ``c_0, c_2, ...`` make E and ``c_1, c_3, ...`` O.
    For an even degree O's leading row is zero, so both run the same number
    of steps."""
    even, odd = rows[-1::-2], rows[-2::-2]
    if len(odd) < len(even):
        odd.append((0.0,) * 8)
    return [e + o for e, o in zip(reversed(even), reversed(odd))]


def _slice_table(fp: QuatPoly, fq: QuatPoly, contour: SliceContour) -> tuple:
    """The node table ``(c w0, ..., c w3, c w0', ..., c w3')``, columns over
    the nodes k <= N//2 of weight c: four columns of fp, then four of fq.

    Nodes 0 < k < N - k stand for themselves and their conjugates N - k, so
    c = 2 there.  Doubling is exact, so it is folded into the coefficients:
    Horner on 2 f gives the same floats as 2 times Horner on f while the
    values stay normal.

    The coefficients are f's Taylor rows about the center x0 in the unit
    variable u, so ``f(x0 + r u) = E(u^2) + u O(u^2)`` with E and
    O of about d/2 steps each, and the pass runs over the unit circle.  For
    even N the antipode ``-conj(u)`` of node k is node N/2 - k, and as every
    column has real coefficients its value is ``conj(E - u O)``: one pass
    over the quarter circle k <= N/4 fills both halves.  Node 0 and its
    antipode N/2 have weight 1, the other pairs 2, and node N/4 (N % 4 == 0)
    is its own antipode, written once.  Odd N has no antipodes; the pass
    runs over the whole half circle.

    The rows are bounded by f's Horner partials on the circle
    (:func:`_taylor_rows`) and the pass's partials by the sum of the rows,
    so the table overflows only within a factor of about 2 (d + 1) of where
    Horner at ``z = x0 + r u`` would.  Against Horner at z on the same
    nodes each value differs by at most ``8 (d + 1) eps c sum_n |a_n| (|x0|
    + r)^n``, with eps = 2^-52: to first order each is within half of that
    of the exact value, the Taylor rows' rounding included."""
    n = contour.nodes
    rows = _parity_rows(_taylor_rows(_rows(fp, fq), contour.center, contour.radius))
    doubled = [tuple([2.0 * c for c in row]) for row in rows]
    nodes = iter(_unit_circle(n))
    ws = [], [], [], [], [], [], [], []
    if n % 2:
        _slice_pass(ws, None, rows, islice(nodes, 1))
        _slice_pass(ws, None, doubled, islice(nodes, n // 2))  # nodes 1 ... (N-1)/2
        return ws
    backs = [], [], [], [], [], [], [], []
    _slice_pass(ws, backs, rows, islice(nodes, 1))  # node 0 and its antipode N/2
    _slice_pass(ws, backs, doubled, islice(nodes, (n - 2) // 4))  # 0 < k < N/4, N/2 - k
    if n % 4 == 0:
        _slice_pass(ws, None, doubled, islice(nodes, 1))  # node N/4, its own antipode
    for w, back in zip(ws, backs):
        back.reverse()
        w.extend(map(complex.conjugate, back))
        back.clear()  # so one column's unconjugated values are alive at a time
    return ws


#: ``(poly, contour, table)`` of the last quadrature, replaced whole.
_last_table: tuple = ()


def _node_table(poly: BiSlicePoly, contour: SliceContour) -> tuple:
    """The node table of both split components, reused while the polynomial
    and the contour are the same objects as in the previous call."""
    global _last_table
    last = _last_table
    if last and last[0] is poly and last[1] is contour:
        return last[2]
    # Let go of the old table before building the new one: two are never alive.
    _last_table = last = ()
    table = _slice_table(*poly.split(), contour)
    _last_table = (poly, contour, table)
    return table


def _closed_integral(ws: tuple, contour: SliceContour) -> Quat:
    """Trapezoid value of the closed integral of ds poly(s) from its columns
    ``ws``, ``I r Re(sum u w) * 2 pi / N``; the differential I r e^{I t} dt
    stays left of the integrand.  ``r (2 pi / N)`` is below r, so finite."""
    v = _new(Quat, [sum(map(mul, _unit_circle(contour.nodes), w), 0j).real for w in ws])
    return contour.unit * v * (contour.radius * (2.0 * math.pi / contour.nodes))


def _check_contours(poly: BiSlicePoly, ci: SliceContour, cj: SliceContour) -> None:
    """Both split components on one circle, within :data:`MAX_NODE_TERMS`
    and :data:`MAX_TAYLOR_TERMS`."""
    if ci[:2] != cj[:2] or ci.nodes != cj.nodes:  # center, radius
        raise InvalidContour(
            "the two contours must share center, radius and node count, got "
            f"{ci.center:.6g}, {ci.radius:.6g}, {ci.nodes} and {cj.center:.6g}, {cj.radius:.6g}, {cj.nodes}"
        )
    terms = len(poly.coeffs)
    if ci.nodes * terms > MAX_NODE_TERMS:
        raise InputTooLarge(
            f"{ci.nodes} nodes x {terms} coefficients is more than "
            f"MAX_NODE_TERMS = {MAX_NODE_TERMS}"
        )
    if terms > MAX_TAYLOR_TERMS:
        raise InputTooLarge(
            f"{terms} coefficients is more than MAX_TAYLOR_TERMS = {MAX_TAYLOR_TERMS}"
        )


def contour_integral_vanishes(
    poly: BiSlicePoly, contour_i: SliceContour, contour_j: SliceContour
) -> tuple[float, float]:
    """Magnitudes of the closed integrals of the two split components."""
    _check_contours(poly, contour_i, contour_j)
    table = _node_table(poly, contour_i)
    return (
        _closed_integral(table[:4], contour_i).modulus(),
        _closed_integral(table[4:], contour_j).modulus(),
    )


def _kernel_weights(contour: SliceContour, alpha: float, beta: float, tol: float) -> tuple:
    """Columns ``(x, y)`` of the kernels ``u / (u - rho)`` and ``u / (u - conj
    rho)`` over the unit circle of the contour's nodes, for targets at
    ``alpha + J beta``: ``rho = ((alpha - x0) + i beta) / r`` is the target
    in the unit variable.

    A node is singular where ``min(|u - rho|, |u - conj rho|)`` is negligible
    beside ``|(1, rho)|``, so every node's bound is the one float ``tol |(1,
    rho)|``.  The disc settles that for most targets: every node lies on the
    unit circle, so it is at least ``1 - |rho|`` from rho and from conj rho.
    The rounding slack, with eps = 2^-52, where ``|rho| < 1`` (elsewhere the
    nodes are tested anyway):

    * a node, ``cos t + i sin t`` with each part within an ulp, is within eps
      of the unit circle;
    * a node's computed gap, a subtraction per part and an abs, is at most
      1.5 eps |u - rho|, so 3 eps, too small;
    * the computed ``1 - |rho|`` is at most 1.5 eps too large, and
      subtracting the slack rounds by at most eps / 2.

    So no node can be singular when ``1 - |rho| - 8 eps`` exceeds the bound,
    and the nodes are tested one by one only when it does not: the answer is
    the node loop's.  (The targets of
    ``test_screened_singular_test_decides_as_the_node_loop`` need at most
    0.49 eps.)
    """
    x0, r = contour.center, contour.radius
    rho = complex((alpha - x0) / r, beta / r)
    rho_bar, rho_abs = rho.conjugate(), abs(rho)
    units = _unit_circle(contour.nodes)
    scale = math.hypot(1.0, rho_abs)
    if 1.0 - rho_abs - 8.0 * _MACHINE_EPS <= tol * scale:
        for u in units:
            if negligible(min(abs(u - rho), abs(u - rho_bar)), scale, 1, tol):
                raise _singular(x0 + r * u.real, r * abs(u.imag))
    return tuple([list(map(truediv, units, map(sub, units, repeat(c)))) for c in (rho, rho_bar)])


def _accumulate(weights: tuple, ws: tuple, unit_j: Quat, nodes: int) -> Quat:
    """``(Re sum g w + J Re sum h w) / N`` for one split component, as
    ``((Re X + Re Y) + J (Im X - Im Y)) / 2N`` from ``X, Y = sum x w, sum y w``."""
    xs, ys = weights
    sx = [sum(map(mul, xs, w), 0j) for w in ws]
    sy = [sum(map(mul, ys, w), 0j) for w in ws]
    g = _new(Quat, [a.real + b.real for a, b in zip(sx, sy)])
    h = _new(Quat, [a.imag - b.imag for a, b in zip(sx, sy)])
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
    """Reproduce poly(x) from its values on one circle in two slices."""
    _check_contours(poly, contour_i, contour_j)
    point = x if isinstance(x, ConePoint) else ConePoint.from_element(x, tol)
    if not contour_i.contains(point.p):
        raise PointOutsideContour("first component outside its contour disc")
    if not contour_j.contains(point.q):
        raise PointOutsideContour("second component outside its contour disc")
    table = _node_table(poly, contour_i)
    weights = _kernel_weights(contour_i, point.alpha, point.beta, tol)
    vp = _accumulate(weights, table[:4], _slice_unit(point.p, contour_i), contour_i.nodes)
    vq = _accumulate(weights, table[4:], _slice_unit(point.q, contour_j), contour_j.nodes)
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

    from .bislice import central_differences

    def slice_operator(fixed: Quat, at: ConePoint, unit: Quat, right_sided: bool) -> Quat:
        def kernel(u: float, v: float) -> Quat:
            y = _slice_point(u, unit, v)
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
