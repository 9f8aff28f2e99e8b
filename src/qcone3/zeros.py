"""Zero sets of quadratic polynomials over the algebra, and multiplicities.

A quadratic (x - alpha)*(x - beta) splits into the two quaternionic
quadratics (p - a1)*(p - b1) and (q - a2)*(q - b2).  Each side has one of
three zero shapes:

* the whole 2-sphere through a, when b = conj(a) (collapsing to the single
  real point a when a is real);
* the single point a, when b lies on the sphere of a but is not conj(a);
* the point pair {a, (b - conj(a))^{-1} b (b - conj(a))}, when a and b lie
  on different spheres.

The zero set of the joined quadratic is the product of the two component
sets, reported structurally (a shape per side) and flattened into pairs.
Case tags follow the shape combination: 1.1/1.2 sphere-sphere (same or
different sphere data), 2 sphere-point, 3 sphere-pair, 4 pair-pair,
5 point-point, 6 point-pair, with mirrored configurations sharing a tag.
Predicate ties resolve toward the more degenerate shape, which stays a
correct zero description under perturbation.

Multiplicity counting works on fully factored input and reads the counts
off the factor list; the product is never expanded.  Per component and per
base sphere S (center x, radius y > 0) the factors on S move to the front
by swaps that keep the product, adjacent conjugate pairs there cancel as
powers of the central real quadratic (t - x)^2 + y^2, and the factors left
on S form a chain whose first constant is the isolated zero.  With n, m the
spherical exponents of the two sides and the chain lengths added per side,
the four reported figures are 2n+2m (carried by the sphere pair), the
point-pair total, 2n + q-side points, and p-side points + 2m.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .bislice import BiSlicePoly, QuatPoly, nan_max
from .clifford3 import EPS, CliffordElement, Quat, join, split
from .errors import UnfactoredInput
from .qsplit import ConePoint, SphereDescriptor


def same_sphere(a: Quat, b: Quat, tol: float = EPS) -> bool:
    scale = 1.0 + max(a.modulus(), b.modulus())
    return (
        abs(a.re() - b.re()) <= tol * scale
        and abs(a.im_modulus() - b.im_modulus()) <= tol * scale
    )


def is_conjugate_pair(a: Quat, b: Quat, tol: float = EPS) -> bool:
    scale = 1.0 + max(a.modulus(), b.modulus())
    return (b - a.conj()).modulus() <= tol * scale


class QuatQuadraticZeros(NamedTuple):
    """Zero shape of one quaternionic quadratic (p - a)*(p - b)."""

    kind: str  # "sphere" | "point" | "two_points"
    sphere: SphereDescriptor | None
    points: tuple[Quat, ...]

    def parts(self) -> tuple:
        """Sphere descriptor or the point list, for pairing."""
        if self.kind == "sphere":
            return (self.sphere,)
        return self.points

    def sample(self, units: Sequence[Quat]) -> list[Quat]:
        """Concrete representatives: sphere shapes expand over the units."""
        if self.kind == "sphere":
            return [self.sphere.sample(u) for u in units]
        return list(self.points)


def conjugate_by(value: Quat, by: Quat, tol: float = EPS) -> Quat:
    return by.inverse(tol) * value * by


def quat_quadratic_zeros(a: Quat, b: Quat, tol: float = EPS) -> QuatQuadraticZeros:
    """Classify the zeros of (p - a)*(p - b).

    The left constant a is always a zero.  The shape depends on whether b
    is the conjugate of a (sphere), shares its sphere (double point), or
    lies elsewhere (second point conjugate to b).
    """
    if is_conjugate_pair(a, b, tol):
        sphere = SphereDescriptor(a.re(), a.im_modulus())
        if sphere.is_point(tol):
            sphere = SphereDescriptor(a.re(), 0.0)
        return QuatQuadraticZeros("sphere", sphere, ())
    if same_sphere(a, b, tol):
        return QuatQuadraticZeros("point", None, (a,))
    mover = b - a.conj()
    second = conjugate_by(b, mover, tol)
    return QuatQuadraticZeros("two_points", None, (a, second))


def split_factors(
    alpha: CliffordElement, beta: CliffordElement
) -> tuple[tuple[Quat, Quat], tuple[Quat, Quat]]:
    """Component constants ((a1, b1), (a2, b2)) of the two linear factors."""
    a1, a2 = split(alpha)
    b1, b2 = split(beta)
    return (a1, b1), (a2, b2)


class ZeroSetQuadratic(NamedTuple):
    """Classified zero set of (x - alpha)*(x - beta)."""

    case: str
    side_p: QuatQuadraticZeros
    side_q: QuatQuadraticZeros
    pairs: tuple[tuple[object, object], ...]

    def sample_elements(self, units: Sequence[Quat]) -> list[CliffordElement]:
        """Joined representatives of every reported zero, spheres sampled."""
        out = []
        for ps in self.side_p.sample(units):
            for qs in self.side_q.sample(units):
                out.append(join(ps, qs))
        return out


def _case_tag(side_p: QuatQuadraticZeros, side_q: QuatQuadraticZeros, tol: float) -> str:
    kinds = {side_p.kind, side_q.kind}
    if kinds == {"sphere"}:
        sp, sq = side_p.sphere, side_q.sphere
        same = (
            abs(sp.center - sq.center) <= tol * (1 + abs(sp.center) + abs(sq.center))
            and abs(sp.radius - sq.radius) <= tol * (1 + sp.radius + sq.radius)
        )
        return "1.1" if same else "1.2"
    if kinds == {"sphere", "point"}:
        return "2"
    if kinds == {"sphere", "two_points"}:
        return "3"
    if kinds == {"two_points"}:
        return "4"
    if kinds == {"point"}:
        return "5"
    return "6"  # point with two_points


def classify_split(
    a1: Quat, b1: Quat, a2: Quat, b2: Quat, tol: float = EPS
) -> ZeroSetQuadratic:
    """Classification from the component factor constants."""
    side_p = quat_quadratic_zeros(a1, b1, tol)
    side_q = quat_quadratic_zeros(a2, b2, tol)
    pairs = tuple((ps, qs) for ps in side_p.parts() for qs in side_q.parts())
    return ZeroSetQuadratic(_case_tag(side_p, side_q, tol), side_p, side_q, pairs)


def classify_quadratic(
    alpha: CliffordElement, beta: CliffordElement, tol: float = EPS
) -> ZeroSetQuadratic:
    """Zero set of (x - alpha)*(x - beta) for any alpha, beta in the algebra.

    The factor constants need not lie in the cone; the zero pairs are
    reported in the two-component picture and need not be cone points
    either (a sphere pair with different radii, for instance).
    """
    (a1, b1), (a2, b2) = split_factors(alpha, beta)
    return classify_split(a1, b1, a2, b2, tol)


# -- multiplicities on the factor list ----------------------------------------------


def left_divide_linear(poly: QuatPoly, root: Quat) -> tuple[QuatPoly, Quat]:
    """Write poly = (p - root) * quotient + remainder (remainder constant).

    The chain points of :func:`sphere_chain` are successive left roots of
    the expanded side; this checks that from outside.
    """
    d = poly.degree(0.0)
    if d < 1:
        return QuatPoly((Quat(),)), poly.coeffs[0] if poly.coeffs else Quat()
    q = [Quat()] * d
    q[d - 1] = poly.coeffs[d]
    for k in range(d - 1, 0, -1):
        q[k - 1] = poly.coeffs[k] + root * q[k]
    remainder = poly.coeffs[0] + root * q[0]
    return QuatPoly(q), remainder


def _on_sphere(c: Quat, center: float, radius: float, tol: float) -> bool:
    """c lies on {Re = center, |Im| = radius}, relative to the largest coordinate.

    ``Quat.modulus`` overflows to inf from about 1e154, and an infinite
    scale would accept every factor, so the scale and |Im c| come from the
    coordinates and ``math.hypot``.
    """
    w, i, j, k = c
    slack = tol * (1.0 + max(abs(w), abs(i), abs(j), abs(k), abs(center), radius))
    return abs(w - center) <= slack and abs(math.hypot(i, j, k) - radius) <= slack


def _is_conjugate(s: Quat, t: Quat, tol: float) -> bool:
    """t = conj(s) coordinatewise, relative to the largest coordinate of either."""
    slack = tol * (1.0 + max(map(abs, (*s, *t))))
    return all(abs(u - v) <= slack for u, v in zip(s.conj(), t))


def sphere_chain(
    constants: Sequence[Quat], base: SphereDescriptor, tol: float = EPS
) -> tuple[int, tuple[Quat, ...]]:
    """(spherical exponent, chain) of (p - c_1)*...*(p - c_N) on the base sphere S.

    Each factor on S moves left past the factors off S before it, one
    adjacent swap at a time: (p - a)*(p - b) = (p - b')*(p - a') with
    h = b - conj(a), b' = h^-1 b h on b's sphere and a' = a + b - b'.  An
    adjacent conjugate pair on S is the central real quadratic of S, so
    the pairs cancel like brackets; each is one power of the spherical
    exponent.  The factors left on S, the chain, have no adjacent
    conjugates, so the first of them is the one isolated zero on S, with
    multiplicity the chain length (Gentili-Stoppato 2008, Serodio-Siu
    2001).  A real base has no spherical part; its chain is one real
    point per factor there.
    """
    center, radius = base
    if base.is_point(tol):
        count = sum(_on_sphere(c, center, 0.0, tol) for c in constants)
        return 0, (Quat(center),) * count
    off: list[Quat] = []  # factors off S, in order, right of the chain
    chain: list[Quat] = []
    power = 0
    for b in constants:
        if not _on_sphere(b, center, radius, tol):
            off.append(b)
            continue
        for k in range(len(off) - 1, -1, -1):
            a = off[k]
            h = b - a.conj()
            # conjugation by h ignores its scale; a unit-size h stays finite
            moved = conjugate_by(b, h / max(map(abs, h)), tol)
            off[k] = a + b - moved
            b = moved
        if chain and _is_conjugate(chain[-1], b, tol):
            chain.pop()
            power += 1
        else:
            chain.append(b)
    return power, tuple(chain)


class MultiplicityReport(NamedTuple):
    """The four multiplicity figures of a factored polynomial at one base."""

    base: SphereDescriptor
    four_dimensional: int
    isolated: int
    first_kind: int
    second_kind: int
    p_spherical_power: int
    q_spherical_power: int
    p_points: tuple[Quat, ...]
    q_points: tuple[Quat, ...]

    @property
    def isolated_location(self) -> tuple[Quat | None, Quat | None]:
        return (
            self.p_points[0] if self.p_points else None,
            self.q_points[0] if self.q_points else None,
        )


def multiplicities(
    factors: Sequence[CliffordElement],
    base: SphereDescriptor,
    tol: float = EPS,
) -> MultiplicityReport:
    """Multiplicity figures of prod (x - factor_k) at the given base.

    With n, m the spherical exponents of the two component polynomials and
    the per-side chains on the base sphere (:func:`sphere_chain`), reports
    2n+2m (four-dimensional spherical), the point total (isolated), 2n +
    q-points (first kind) and p-points + 2m (second kind).
    """
    if not factors:
        raise UnfactoredInput("need at least one linear factor")
    pairs = [split(c) for c in factors]
    n_sph, p_points = sphere_chain([p for p, _ in pairs], base, tol)
    m_sph, q_points = sphere_chain([q for _, q in pairs], base, tol)
    return MultiplicityReport(
        base=base,
        four_dimensional=2 * n_sph + 2 * m_sph,
        isolated=len(p_points) + len(q_points),
        first_kind=2 * n_sph + len(q_points),
        second_kind=len(p_points) + 2 * m_sph,
        p_spherical_power=n_sph,
        q_spherical_power=m_sph,
        p_points=p_points,
        q_points=q_points,
    )


def candidate_bases(constants: Sequence[Quat], tol: float = EPS) -> list[SphereDescriptor]:
    """Distinct sphere data of the factor constants (zeros live on these)."""
    bases: list[SphereDescriptor] = []
    for c in constants:
        cand = SphereDescriptor(c.re(), math.hypot(*c[1:]))  # finite past 1e154
        if cand.radius <= tol:
            cand = SphereDescriptor(c.re(), 0.0)
        for known in bases:
            if (
                abs(known.center - cand.center) <= tol * (1 + abs(cand.center))
                and abs(known.radius - cand.radius) <= tol * (1 + cand.radius)
            ):
                break
        else:
            bases.append(cand)
    return bases


def component_multiplicity_total(
    constants: Sequence[Quat], tol: float = EPS
) -> int:
    """Sum over candidate bases of 2*spherical + point counts for one side."""
    total = 0
    for base in candidate_bases(constants, tol):
        n_sph, chain = sphere_chain(constants, base, tol)
        total += 2 * n_sph + len(chain)
    return total


def fta_witness(factors: Sequence[CliffordElement], tol: float = EPS) -> ConePoint:
    """A root of prod (x - factor_k): the leading constant is a left root."""
    if not factors:
        raise UnfactoredInput("need at least one linear factor")
    return ConePoint.from_element(factors[0], tol)


def verify_zeros(
    poly: BiSlicePoly,
    zero_set: ZeroSetQuadratic,
    units: Sequence[Quat],
    tol: float = 1e-9,
) -> float:
    """Largest |poly| over sampled representatives of the zero set; nan if any is nan."""
    residuals = [poly.eval(x).magnitude() for x in zero_set.sample_elements(units)]
    return nan_max(0.0, *residuals)
