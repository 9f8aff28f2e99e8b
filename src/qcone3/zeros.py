"""Zero sets of factored polynomials over the algebra, and multiplicities.

One engine reads every zero off the factor list; the product is never
expanded.  prod (x - c_k) vanishes at join(p, q) exactly when its two
components prod (p - a_k) and prod (q - b_k) vanish at p and q, and on a
sphere a component vanishes either everywhere or at one isolated point
(Gentili-Struppa 2007, Gentili-Stoppato 2008).  Zeros lie only on the
spheres of the factor constants (:func:`candidate_bases`), and
:func:`sphere_chain` settles each: the factors on the sphere S (center x,
radius y) move to the front by swaps that keep the product, adjacent
conjugate pairs there cancel as powers of the central real quadratic
(t - x)^2 + y^2, and the factors left form a chain whose first constant is
the isolated zero.  One sphere-equality test decides both which spheres
are distinct and which factors lie on one.

For a quadratic (x - alpha)*(x - beta), a side's shape at each base is the
whole sphere if the spherical exponent is positive, else the chain's first
point: the sphere through a when b = conj(a) (radius 0 when a = b is
real), the single point a when b is elsewhere on that sphere, or the pair
{a, h^-1 b h} with h = b - conj(a) when b lies on another sphere.  The
zero set is the product of the two side sets, reported per side and
flattened into pairs.  Case tags follow the shape combination: 1.1/1.2
sphere-sphere (same or different sphere), 2 sphere-point, 3 sphere-pair,
4 pair-pair, 5 point-point, 6 point-pair, mirrored configurations sharing
a tag.  Ties resolve toward the more degenerate shape, which stays a
correct zero description under perturbation.  :func:`verify_zeros` checks
each side on its own component.

With n, m the spherical exponents of the two sides and the chain lengths
added per side, the four multiplicity figures at a base are 2n+2m (carried
by the sphere pair), the point-pair total, 2n + q-side points, and p-side
points + 2m.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .bislice import BiSlicePoly, QuatPoly, nan_max
from .clifford3 import EPS, CliffordElement, Quat, _scaled, _times_power_of_two, negligible, split
from .errors import UnfactoredInput
from .qsplit import ConePoint, SphereDescriptor

# -- the engine: spheres and chains ---------------------------------------------------


def _sphere_of(c: Quat) -> tuple[float, float]:
    """(Re c, |Im c|)."""
    return c[0], c.im_modulus()


def _same_base(s: tuple[float, float], t: tuple[float, float], tol: float) -> bool:
    """s and t are one sphere, relative to the largest of their four figures.

    The one sphere-equality test: distinct candidate bases, a factor on a
    base and the 1.1/1.2 tie all use it, so a factor lies on the base it
    produced and on no other.
    """
    m = max(abs(s[0]), abs(t[0]), s[1], t[1])
    return negligible(s[0] - t[0], m, tol=tol) and negligible(s[1] - t[1], m, tol=tol)


def _is_conjugate(s: Quat, t: Quat, tol: float) -> bool:
    """t = conj(s) coordinatewise, relative to the largest coordinate of either."""
    m = max(map(abs, (*s, *t)))
    return all(negligible(u - v, m, tol=tol) for u, v in zip(s.conj(), t))


def candidate_bases(constants: Sequence[Quat], tol: float = EPS) -> list[SphereDescriptor]:
    """Distinct sphere data of the factor constants (zeros live on these)."""
    bases: list[SphereDescriptor] = []
    for c in constants:
        cand = SphereDescriptor(*_sphere_of(c))
        if cand.is_point(tol):
            cand = SphereDescriptor(cand.center, 0.0)
        if not any(_same_base(known, cand, tol) for known in bases):
            bases.append(cand)
    return bases


def sphere_chain(
    constants: Sequence[Quat], base: SphereDescriptor, tol: float = EPS
) -> tuple[int, tuple[Quat, ...]]:
    """(spherical exponent, chain) of (p - c_1)*...*(p - c_N) on the base sphere S.

    Each factor on S moves left past the factors off S before it, one
    adjacent swap at a time: (p - a)*(p - b) = (p - b')*(p - a') with
    h = b - conj(a), b' = h^-1 b h on b's sphere and a' = a + b - b'.  The
    swap runs on the pair scaled by a power of two that brings its largest
    coordinate into [1/2, 1), so h and a' stay finite near the float
    maximum and the result is the unscaled one bit for bit.  An adjacent
    conjugate pair on S is the central real quadratic of S, so the pairs
    cancel like brackets; each is one power of the spherical exponent.  The
    factors left on S, the chain, have no adjacent conjugates, so the first
    of them is the one isolated zero on S, with multiplicity the chain
    length (Gentili-Stoppato 2008, Serodio-Siu 2001).  A real base has no
    spherical part; its chain is one real point per factor there.
    """
    center = base.center
    if base.is_point(tol):
        count = sum(_same_base(_sphere_of(c), (center, 0.0), tol) for c in constants)
        return 0, (Quat(center),) * count
    off: list[Quat] = []  # factors off S, in order, right of the chain
    chain: list[Quat] = []
    power = 0
    for b in constants:
        if not _same_base(_sphere_of(b), base, tol):
            off.append(b)
            continue
        for k in range(len(off) - 1, -1, -1):
            e, (a, b) = _scaled(off[k], b)
            h = b - a.conj()
            moved = h.inverse() * b * h
            off[k] = _times_power_of_two(a + b - moved, e)
            b = _times_power_of_two(moved, e)
        if chain and _is_conjugate(chain[-1], b, tol):
            chain.pop()
            power += 1
        else:
            chain.append(b)
    return power, tuple(chain)


# -- quadratics ------------------------------------------------------------------------


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


def quat_quadratic_zeros(a: Quat, b: Quat, tol: float = EPS) -> QuatQuadraticZeros:
    """Classify the zeros of (p - a)*(p - b) from its chains.

    At each candidate base a positive spherical exponent gives the whole
    sphere (b = conj(a)); otherwise the chain's first point is the zero
    there.  Two factors on one real base are one real number, kept as a
    sphere of radius 0.
    """
    constants = (a, b)
    points: list[Quat] = []
    for base in candidate_bases(constants, tol):
        power, chain = sphere_chain(constants, base, tol)
        if power or (len(chain) == 2 and not base.radius):
            return QuatQuadraticZeros("sphere", base, ())
        points.extend(chain[:1])
    return QuatQuadraticZeros("point" if len(points) == 1 else "two_points", None, tuple(points))


class ZeroSetQuadratic(NamedTuple):
    """Classified zero set of (x - alpha)*(x - beta)."""

    case: str
    side_p: QuatQuadraticZeros
    side_q: QuatQuadraticZeros
    pairs: tuple[tuple[object, object], ...]


def _case_tag(side_p: QuatQuadraticZeros, side_q: QuatQuadraticZeros, tol: float) -> str:
    kinds = {side_p.kind, side_q.kind}
    if kinds == {"sphere"}:
        return "1.1" if _same_base(side_p.sphere, side_q.sphere, tol) else "1.2"
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
    a1, a2 = split(alpha)
    b1, b2 = split(beta)
    return classify_split(a1, b1, a2, b2, tol)


def _side_residual(side: QuatPoly, shape: QuatQuadraticZeros, units: Sequence[Quat]) -> float:
    """Largest |side| over the shape's samples, nan if a coordinate is
    (the modulus reads inf beside an inf)."""
    worst = 0.0
    for z in shape.sample(units):
        value = side.eval(z)
        if any(map(math.isnan, value)):
            return math.nan
        worst = max(worst, value.modulus())
    return worst


def verify_zeros(
    poly: BiSlicePoly,
    zero_set: ZeroSetQuadratic,
    units: Sequence[Quat],
) -> float:
    """Largest |poly| over sampled representatives of the zero set; nan if any is nan.

    poly(join(p, q)) = join(f_p(p), f_q(q)) and |join(u, v)|^2 =
    (|u|^2 + |v|^2)/2, so the worst over all pairs comes from each side
    checked on its own: N + M evaluations instead of N * M.
    """
    f_p, f_q = poly.split()
    worst_p = _side_residual(f_p, zero_set.side_p, units)
    worst_q = _side_residual(f_q, zero_set.side_q, units)
    if math.isnan(nan_max(worst_p, worst_q)):
        return math.nan
    return math.hypot(worst_p, worst_q) / math.sqrt(2.0)


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


def fta_witness(factors: Sequence[CliffordElement]) -> ConePoint:
    """A root of prod (x - factor_k): the leading constant is a left root."""
    if not factors:
        raise UnfactoredInput("need at least one linear factor")
    return ConePoint.from_element(factors[0])
