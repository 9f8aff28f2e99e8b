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
  sum is real: ``X + conj Y`` over the half circle for the sum of ``x w``.
* For even N the nodes u and -u are both nodes too, and with ``f(x0 + r u)
  = E(s) + u O(s)``, ``s = u^2``, E and O of real coefficients, each pair
  folds into one term: ``x(u) w(u) + x(-u) w(-u) = 2 K(s) (E(s) + rho
  O(s))`` with ``K(s) = s / (s - rho^2)``, and ``u w(u) - u w(-u) = 2 s
  O(s)``.  So the N-node sum is the N/2-node trapezoid sum over the circle
  of s, ``s_m = u_{2m}``, for E and O, still f on the contour through its
  even and odd parts (not the closed form ``f(q) / (1 - rho^N)``).  Odd N is
  the same with one class, f itself over u, and ``K(u) = u / (u - rho)``.
* Over the half circle of ``v = u^p`` (p = 2 for even N, else 1), weight
  ``c`` 1 where v is real (v = 1, and v = -1 when N/p is even) and 2
  elsewhere, folded into the coefficients: Horner on ``2 f_j`` is exactly
  ``2 f_j`` while the values stay normal.  With ``X = sum_j rho^j sum c K
  f_j`` (``sum c K E + rho sum c K O`` for even N) and Y the same at conj
  rho, the reconstruction is ``p ((Re X + Re Y) + J (Im X - Im Y)) / 2N``,
  free of I as the formula says, and the closed integral is ``I r p Re(sum
  c v f_{p-1}) * 2 pi / N``.  The sums run in C, ``sum(map(mul, ...),
  0j)``.

The weights depend on the target only through rho, which a cone point's
split components ``alpha + beta I1`` and ``alpha + beta I2`` share, so one
weight pass over the folded circle serves both; each component then sums
against its own table.  rho is formed from ``alpha - x0``, so a radius
small beside the center keeps its digits.  The pass and its singular test
see the contour and the target only through rho, so both have degree 0:
the circle and the target scaled by a power of two give the same floats and
the same decision.  A node is singular where ``min(|u - rho|, |u - conj
rho|)`` (which covers nodes k and N - k) is negligible beside ``|(1,
rho)|``, the disc's own size ``|(r, q_c - x0)| / r`` with ``q_c = alpha + i
beta``.  That bound is one float for every node, and every node is at least
``1 - |rho|`` from rho and from conj rho, so when that margin, less a
rounding slack of ``8 eps``, exceeds the bound, no node can be singular.
Only targets within about ``1.4 tol r`` of the circle are tested node by
node, over the whole half circle u, and the answer is the node loop's
either way (:func:`_kernel_weights`).

Both quadratures read one node table over the folded circle: per class
``f_j``, ``c f_j`` for each split component, eight complex columns a class.
Even N holds sixteen columns over N/4 + 1 nodes and odd N eight over N/2 +
1, about 160 bytes per contour node either way (tracemalloc; a constant
holds one complex per column, 16 bytes per node), so at most 10.6 MB at
:data:`MAX_NODES`, and a reconstruction's columns ``K, K'`` 20 bytes per
node at even N (1.3 MB at :data:`MAX_NODES`), 40 at odd N, while it runs.
The columns come from f's Taylor rows about x0 in u (Horner in u once per
table, O(d^2)), split into the classes, each with its own leading row, and
Horner over v (:func:`_classes`, :func:`_horner_values`,
:func:`_slice_table`): about d/2 steps a node for E and for O at even N, d
at odd N.  No row exceeds the largest of f's
Horner partials on the circle, so the table stays finite where Horner at
``x0 + r u`` does, short of a factor of about 2 (d + 1), though the Taylor
coefficients themselves may overflow.  The unit circle is kept for the
last four node counts, about 1.3 MB an entry at :data:`MAX_NODES`
(:func:`_unit_circle`); the folded circle of even N is its every other
node.
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
from itertools import chain, repeat
from operator import add, mul, sub, truediv
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
    from collections.abc import Callable

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
    the rest is its antipodes, ``e^{i t_{N/2-k}} = -conj(e^{i t_k})``."""
    front = n // 4 if n % 2 == 0 else n // 2
    units = [complex(math.cos(t), math.sin(t)) for t in (2.0 * math.pi * k / n for k in range(front + 1))]
    if n % 2 == 0:
        units += [-u.conjugate() for u in reversed(units[: n // 2 - front])]
    return tuple(units)


def _fold(n: int) -> tuple[int, tuple]:
    """``(p, nodes)``: the classes p of the folded sum, 2 for even N and 1
    for odd N, and its nodes ``v = u^p`` over their half circle, ``s_m =
    u_{2m}`` (m <= N/4) for even N and u itself for odd N."""
    units = _unit_circle(n)
    return (1, units) if n % 2 else (2, units[::2])


def _horner_values(rows: list, points: tuple):
    """Horner over each point v of ``rows`` (eight real coefficient columns
    a row, the leading one first), from the leading row as complex numbers:
    yields the eight column values at v.  A single row is a constant,
    yielded as is."""
    lead, *rows = rows
    lead = tuple(map(complex, lead))
    if not rows:
        yield from repeat(lead, len(points))
        return
    for v in points:
        u0, u1, u2, u3, u4, u5, u6, u7 = lead
        for a0, a1, a2, a3, a4, a5, a6, a7 in rows:
            u0 = u0 * v + a0
            u1 = u1 * v + a1
            u2 = u2 * v + a2
            u3 = u3 * v + a3
            u4 = u4 * v + a4
            u5 = u5 * v + a5
            u6 = u6 * v + a6
            u7 = u7 * v + a7
        yield u0, u1, u2, u3, u4, u5, u6, u7


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


def _classes(rows: list, p: int) -> list:
    """The rows of ``f_0 ... f_{p-1}``, leading one first, with ``f(u) =
    sum_j u^j f_j(u^p)``, from rows ``c_d ... c_0``: ``f_j`` has ``c_j,
    c_{j+p}, ...``.  A class past the degree is left out, so every class
    has rows of its own and no zero leading row."""
    up = rows[::-1]
    return [up[j::p][::-1] for j in range(min(p, len(rows)))]


def _plane_columns(poly: BiSlicePoly) -> Callable[[complex], tuple]:
    """The map from z to both components' eight complex columns at z,
    ``E(z^2) + z O(z^2)`` from the even and odd coefficients (E alone for a
    constant): the node table's Horner pass at one point, on the plain
    coefficients."""
    classes = _classes(_rows(*poly.split()), 2)

    def at(z: complex) -> tuple:
        v = (z * z,)
        (even,) = _horner_values(classes[0], v)
        if len(classes) == 1:
            return even
        (odd,) = _horner_values(classes[1], v)
        return tuple([e + z * o for e, o in zip(even, odd)])

    return at


def _slice_table(fp: QuatPoly, fq: QuatPoly, contour: SliceContour) -> list:
    """The node table: per class ``f_j`` (:func:`_classes`), its eight
    columns ``c f_j`` over the folded circle (:func:`_fold`), four of fp,
    then four of fq.

    The coefficients are f's Taylor rows about the center x0 in the unit
    variable u, so ``f(x0 + r u) = sum_j u^j f_j(u^p)``.  For even N (p = 2)
    the nodes u and -u are both nodes and ``f(+-u) = E(s) +- u O(s)`` at
    ``s = u^2``; E and O, of about d/2 steps each, are tabled at the nodes
    ``s_m = u_{2m}``, m <= N/4, of the circle of s.  For odd N (p = 1) the
    one class is f itself over the half circle k <= N//2.  The nodes pair
    as ``v`` and ``conj v``, so c = 2 except where v is real: v = 1, and v
    = -1 when N/p is even.  Doubling is exact, so it is folded into the
    coefficients: Horner on 2 f_j gives the same floats as 2 times Horner
    on f_j while the values stay normal.

    The rows are bounded by f's Horner partials on the circle
    (:func:`_taylor_rows`) and the pass's partials by the sum of the rows,
    so the table overflows only within a factor of about 2 (d + 1) of where
    Horner at ``z = x0 + r u`` would.  With ``S = sum_n |a_n| (|x0| +
    r)^n`` and eps = 2^-52, each value's rounding is, to first order, ``2 d
    eps c S`` from the Taylor rows and about ``4 eps c S`` a Horner step at
    |v| = 1, d/2 steps for E and for O at even N and d at odd N.  Against
    Horner at ``x0 +- r u`` (E and O as ``(f(u) +- f(-u)) / 2`` and ``/
    2u``) each value lies within ``8 (d + 1) eps c S``; the largest seen is
    about a ninth of that."""
    n = contour.nodes
    p, nodes = _fold(n)
    # v = -1 is a node, of weight 1, when the circle of v has an even count
    last = len(nodes) - 1 if (n // p) % 2 == 0 else len(nodes)
    table = []
    for rows in _classes(_taylor_rows(_rows(fp, fq), contour.center, contour.radius), p):
        doubled = [tuple([2.0 * c for c in row]) for row in rows]
        values = chain(
            _horner_values(rows, nodes[:1]),
            _horner_values(doubled, nodes[1:last]),
            _horner_values(rows, nodes[last:]),
        )
        table.append(tuple(zip(*values)))
    return table


#: ``(poly, contour, table)`` of the last quadrature, replaced whole.
_last_table: tuple = ()


def _node_table(poly: BiSlicePoly, contour: SliceContour) -> list:
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


def _closed_integral(classes: list, contour: SliceContour) -> Quat:
    """Trapezoid value of the closed integral of ds poly(s) from one
    component's table ``classes``.  Over the N nodes ``sum u f(u) = p sum_v
    v f_{p-1}(v)`` (for even N, ``u f(u) - u f(-u) = 2 s O(s)``), which is
    ``p Re sum c v f_{p-1}`` over the folded half circle, so the integral is
    ``I r p Re(sum c v f_{p-1}) * 2 pi / N``, and 0 for a constant at even
    N; the differential I r e^{I t} dt stays left of the integrand.  ``r (2
    pi p / N)`` is below r, so finite."""
    n = contour.nodes
    p, nodes = _fold(n)
    if len(classes) < p:
        v = Quat()
    else:
        v = _new(Quat, [sum(map(mul, nodes, w), 0j).real for w in classes[p - 1]])
    return contour.unit * v * (contour.radius * (2.0 * math.pi * p / n))


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
        _closed_integral([c[:4] for c in table], contour_i).modulus(),
        _closed_integral([c[4:] for c in table], contour_j).modulus(),
    )


def _kernel_weights(contour: SliceContour, alpha: float, beta: float, tol: float) -> tuple:
    """The folded kernels over the folded circle of the contour's nodes, for
    targets at ``alpha + J beta``: ``rho = ((alpha - x0) + i beta) / r`` is
    the target in the unit variable, and the pairs ``(K, rho)``, ``(K',
    conj rho)`` hold the columns ``K = v / (v - rho^p)`` and ``K' = v / (v -
    conj rho^p)`` at the nodes ``v = u^p`` (:func:`_fold`).  For
    even N, ``x(u) = u / (u - rho)`` at u and -u sums to ``2 K(s)`` and
    differs by ``2 rho K(s) / u``, so ``x(u) f(u) + x(-u) f(-u) = 2 K(s)
    (E(s) + rho O(s))``.

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
    and the nodes are tested one by one, over the half circle k <= N//2,
    which holds each node or its conjugate, only when it does not: the
    answer is the node loop's.  (The targets of
    ``test_screened_singular_test_decides_as_the_node_loop`` need at most
    0.49 eps.)
    """
    x0, r, n = contour.center, contour.radius, contour.nodes
    rho = complex((alpha - x0) / r, beta / r)
    rho_bar, rho_abs = rho.conjugate(), abs(rho)
    units = _unit_circle(n)
    scale = math.hypot(1.0, rho_abs)
    p, nodes = _fold(n)
    gaps = [map(sub, nodes, repeat(c if p == 1 else c * c)) for c in (rho, rho_bar)]
    if 1.0 - rho_abs - 8.0 * _MACHINE_EPS <= tol * scale:
        for u in units:
            if negligible(min(abs(u - rho), abs(u - rho_bar)), scale, 1, tol):
                raise _singular(x0 + r * u.real, r * abs(u.imag))
        if p == 2:
            # An ulp from the circle rho^2 can round onto a node s that u and
            # -u miss; (u - rho)(u + rho) is 0 only where the loop raised.
            roots = units[: len(nodes)]
            gaps = [map(mul, map(sub, roots, repeat(c)), map(add, roots, repeat(c))) for c in (rho, rho_bar)]
    xs, ys = [list(map(truediv, nodes, g)) for g in gaps]
    return (xs, rho), (ys, rho_bar)


def _kernel_sums(ks: list, c: complex, classes: list) -> list:
    """Per column, ``sum_j c^j sum K f_j`` over the classes (p <= 2)."""
    sums = [sum(map(mul, ks, w), 0j) for w in classes[0]]
    if len(classes) > 1:
        sums = [a + c * sum(map(mul, ks, w), 0j) for a, w in zip(sums, classes[1])]
    return sums


def _accumulate(weights: tuple, classes: list, unit_j: Quat, nodes: int) -> Quat:
    """``(Re sum g w + J Re sum h w) / N`` over the N nodes for one split
    component, as ``((Re X + Re Y) + J (Im X - Im Y)) p / 2N`` from the
    folded sums ``X = sum_j rho^j sum K f_j`` and Y the same at conj rho."""
    (xs, rho), (ys, rho_bar) = weights
    sx = _kernel_sums(xs, rho, classes)
    sy = _kernel_sums(ys, rho_bar, classes)
    g = _new(Quat, [a.real + b.real for a, b in zip(sx, sy)])
    h = _new(Quat, [a.imag - b.imag for a, b in zip(sx, sy)])
    return (g + unit_j * h) / (2 * nodes if nodes % 2 else nodes)


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
    vp = _accumulate(weights, [c[:4] for c in table], _slice_unit(point.p, contour_i), contour_i.nodes)
    vq = _accumulate(weights, [c[4:] for c in table], _slice_unit(point.q, contour_j), contour_j.nodes)
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
