"""The quadratic cone in the quaternion-pair view.

The pair itself (:class:`Quat`, :class:`QuatPair`, :func:`split`,
:func:`join`) is defined in :mod:`qcone3.clifford3`, and this module imports
only what it computes with.  Import the pair and the ``Q*`` units from
``clifford3``; ``perfbench/`` still calls ``qsplit.split`` and ``qsplit.join``.

The quadratic cone consists of the elements whose trace and norm are real;
in coordinates that is ``x123 = 0`` together with
``x2*x13 - x1*x23 - x3*x12 = 0``, and in the pair picture it is exactly the
couples (p, q) sharing real part and imaginary modulus.
"""

from __future__ import annotations

from typing import NamedTuple

from .clifford3 import (
    EPS,
    CliffordElement,
    Quat,
    QuatPair,
    _new,
    join,
    negligible,
    split,
)
from .errors import NotImaginaryUnit, NotInCone


def cone_residuals(x: CliffordElement) -> tuple[float, float]:
    """The two defining quantities of the cone, each relative to the
    coefficients it involves: the numbers :func:`in_cone` holds to ``tol``.

    The residual x123 is linear in x and is divided by ``max|x_i|``.  The
    quadratic residual ``x2 x13 - x1 x23 - x3 x12`` is built from the six
    imaginary coefficients alone, so a large real part does not shrink it; it
    is evaluated on those six divided by the largest of them, at most 1 in
    size, so it cannot overflow.  Both have degree 0: ``2**k * x`` gives the
    same two floats wherever its coefficients are normal.
    """
    c = x.coeffs
    size = max(map(abs, c)) or 1.0  # all zero: so are both residuals
    m = max(map(abs, c[1:7])) or 1.0
    c1, c2, c3, c12, c13, c23 = [a / m for a in c[1:7]]
    return c[7] / size, c2 * c13 - c1 * c23 - c3 * c12


def in_cone(x: CliffordElement, tol: float = EPS) -> bool:
    """Cone membership: both :func:`cone_residuals`, relative already, are
    negligible at degree 0, so what ``cone-check`` records is what it
    decides."""
    r1, r2 = cone_residuals(x)
    return negligible(r1, 1.0, 0, tol) and negligible(r2, 1.0, 0, tol)


def is_sqrt_minus_one(x: CliffordElement) -> bool:
    """True when both split components square to -1 within EPS."""
    p, q = split(x)
    return (p * p).isclose(-1.0) and (q * q).isclose(-1.0)


def inverse(x: CliffordElement) -> CliffordElement:
    """Componentwise quaternionic inverse.

    The algebra has zero divisors (each idempotent annihilates the other),
    so inversion fails exactly when a split component is zero.
    """
    p, q = split(x)
    return join(p.inverse(), q.inverse())


def power(x: CliffordElement, n: int) -> CliffordElement:
    """Integer power via the split; agrees with repeated multiplication."""
    p, q = split(x)
    return join(p.power(n), q.power(n))


class SphereDescriptor(NamedTuple):
    """A quaternionic 2-sphere {Re = center, |Im| = radius}.

    Radius 0 collapses to the single real point ``center``.
    """

    center: float
    radius: float

    def is_point(self, tol: float = EPS) -> bool:
        return negligible(self.radius, max(abs(self.center), abs(self.radius)), tol=tol)

    def sample(self, unit: Quat) -> Quat:
        return Quat(self.center) + unit * self.radius


def _slice_point(alpha: float, unit: Quat | None, beta: float) -> Quat:
    """``Quat(alpha) + unit * beta`` on floats, in that order; real if no unit."""
    if unit is None:
        return Quat(alpha)
    u0, u1, u2, u3 = unit
    return _new(Quat, (alpha + u0 * beta, 0.0 + u1 * beta, 0.0 + u2 * beta, 0.0 + u3 * beta))


class ConePoint:
    """A certified point of the quadratic cone with cached slice data.

    Stored as (alpha, beta, i1, i2) with beta >= 0, representing the couple
    (alpha + i1*beta, alpha + i2*beta).  Real points carry ``i1 = i2 =
    None``; a beta negligible beside ``max(|alpha|, beta)`` makes the point
    real.  Negative beta on construction is normalized by flipping both
    units, which names the same point.
    """

    __slots__ = ("alpha", "beta", "i1", "i2")

    def __init__(
        self,
        alpha: float,
        beta: float,
        i1: Quat | None,
        i2: Quat | None,
        tol: float = EPS,
    ):
        alpha = float(alpha)
        beta = float(beta)
        if beta < 0.0:
            beta = -beta
            i1 = -i1 if i1 is not None else None
            i2 = -i2 if i2 is not None else None
        if negligible(beta, max(abs(alpha), beta), tol=tol):
            beta = 0.0
            i1 = i2 = None
        else:
            if i1 is None or i2 is None:
                raise NotImaginaryUnit("non-real cone point needs both slice units")
            if not (i1.is_unit_imaginary(tol) and i2.is_unit_imaginary(tol)):
                raise NotImaginaryUnit("slice units must square to -1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "i1", i1)
        object.__setattr__(self, "i2", i2)

    def __setattr__(self, name, value):
        raise AttributeError("ConePoint is immutable")

    @property
    def is_real(self) -> bool:
        return self.i1 is None

    @property
    def p(self) -> Quat:
        return _slice_point(self.alpha, self.i1, self.beta)

    @property
    def q(self) -> Quat:
        return _slice_point(self.alpha, self.i2, self.beta)

    @property
    def pair(self) -> QuatPair:
        return QuatPair(self.p, self.q)

    @property
    def element(self) -> CliffordElement:
        return join(self.p, self.q)

    @property
    def trace_value(self) -> float:
        return 2.0 * self.alpha

    @property
    def norm_value(self) -> float:
        return self.alpha**2 + self.beta**2

    @classmethod
    def from_element(cls, x: CliffordElement, tol: float = EPS) -> "ConePoint":
        """The cone point of an element :func:`in_cone` accepts.  Each unit is
        its side's imaginary part over that side's own modulus, so it squares
        to -1 wherever the moduli differ within the tolerance."""
        if not in_cone(x, tol):
            r1, r2 = cone_residuals(x)
            raise NotInCone(
                f"relative cone residuals ({r1:.3e}, {r2:.3e}) exceed tolerance"
            )
        p, q = split(x)
        alpha = 0.5 * (p.re() + q.re())
        a, b = p.im_modulus(), q.im_modulus()
        if not (a and b):  # in the cone, one side is real only if both are
            return cls(alpha, 0.0, None, None, tol)
        return cls(alpha, 0.5 * a + 0.5 * b, p.im() / a, q.im() / b, tol)

    def __repr__(self) -> str:
        if self.is_real:
            return f"ConePoint({self.alpha!r})"
        return f"ConePoint({self.alpha!r}, {self.beta!r}, {self.i1!r}, {self.i2!r})"


def cone_point(x: float, y: float, i1: Quat | None, i2: Quat | None) -> ConePoint:
    """The cone point with split (x + i1*y, x + i2*y)."""
    return ConePoint(x, y, i1, i2)


def in_ball(point: ConePoint, radius: float) -> bool:
    """Membership in {n(x) < R}; R compares against the squared modulus."""
    if radius <= 0.0:
        raise ValueError("ball radius must be positive")
    return point.norm_value < radius
