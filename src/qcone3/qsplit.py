"""Quaternion-pair view of the algebra and the quadratic cone.

The even subalgebra spanned by (1, e23, e13, e12) is a copy of the
quaternions, and the two central idempotents w+ = (1 + e123)/2 and
w- = (1 - e123)/2 decompose the whole algebra into two such copies:
every element x has a unique representation x = w+ p + w- q.  The
:func:`split`/:func:`join` pair moves between the eight Clifford
coefficients and the two quaternions; the linear system they solve is a
signed permutation up to a factor 1/2, so both directions are closed form
and exact.

The quadratic cone consists of the elements whose trace and norm are real;
in coordinates that is ``x123 = 0`` together with
``x2*x13 - x1*x23 - x3*x12 = 0``, and in the pair picture it is exactly the
couples (p, q) sharing real part and imaginary modulus.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .clifford3 import EPS, CliffordElement, _element_from_floats
from .errors import NotImaginaryUnit, NotInCone, SingularElement

_new = tuple.__new__


class Quat(tuple):
    """Quaternion on the even-subalgebra basis (1, e23, e13, e12).

    Field names carry the basis label they multiply.  The triple
    i = e23, j = -e13, k = e12 satisfies the usual quaternion relations
    under the Clifford product, but all data in this library is stated in
    the (w, a23, a13, a12) coordinates to avoid sign-convention drift.

    A value is an immutable 4-tuple of floats ``(w, a23, a13, a12)``.  The
    constructor coerces its arguments with ``float``; results computed here
    are floats already and are built with ``_new(Quat, ...)``, which skips
    that step.  The arithmetic operators below replace tuple concatenation
    and repetition.
    """

    __slots__ = ()
    __match_args__ = ("w", "a23", "a13", "a12")

    def __new__(
        cls, w: float = 0.0, a23: float = 0.0, a13: float = 0.0, a12: float = 0.0
    ) -> "Quat":
        return _new(cls, (float(w), float(a23), float(a13), float(a12)))

    w = property(itemgetter(0), doc="Real part, coefficient of 1.")
    a23 = property(itemgetter(1), doc="Coefficient of e23.")
    a13 = property(itemgetter(2), doc="Coefficient of e13.")
    a12 = property(itemgetter(3), doc="Coefficient of e12.")

    def __getnewargs__(self) -> tuple[float, float, float, float]:
        return tuple(self)

    def __repr__(self) -> str:
        w, a23, a13, a12 = self
        return f"Quat(w={w!r}, a23={a23!r}, a13={a13!r}, a12={a12!r})"

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "Quat | float") -> "Quat":
        x0, x1, x2, x3 = self
        y0, y1, y2, y3 = other if isinstance(other, Quat) else _as_quat(other)
        return _new(Quat, (x0 + y0, x1 + y1, x2 + y2, x3 + y3))

    __radd__ = __add__

    def __sub__(self, other: "Quat | float") -> "Quat":
        x0, x1, x2, x3 = self
        y0, y1, y2, y3 = other if isinstance(other, Quat) else _as_quat(other)
        return _new(Quat, (x0 - y0, x1 - y1, x2 - y2, x3 - y3))

    def __rsub__(self, other: "Quat | float") -> "Quat":
        return _as_quat(other) - self

    def __neg__(self) -> "Quat":
        x0, x1, x2, x3 = self
        return _new(Quat, (-x0, -x1, -x2, -x3))

    def __mul__(self, other: "Quat | float") -> "Quat":
        x0, x1, x2, x3 = self
        if isinstance(other, Quat):
            # Product table of the even subalgebra under the Clifford product:
            # e23*e13 = -e12, e13*e23 = e12, e23*e12 = e13, e12*e23 = -e13,
            # e13*e12 = -e23, e12*e13 = e23, and each squares to -1.
            y0, y1, y2, y3 = other
            return _new(
                Quat,
                (
                    x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3,
                    x0 * y1 + x1 * y0 - x2 * y3 + x3 * y2,
                    x0 * y2 + x2 * y0 + x1 * y3 - x3 * y1,
                    x0 * y3 + x3 * y0 - x1 * y2 + x2 * y1,
                ),
            )
        if isinstance(other, (int, float)):
            s = float(other)
            return _new(Quat, (x0 * s, x1 * s, x2 * s, x3 * s))
        return NotImplemented

    def __rmul__(self, other: float) -> "Quat":
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, scalar: float) -> "Quat":
        return self * (1.0 / float(scalar))

    # -- conjugation, norms, parts ------------------------------------------------

    def conj(self) -> "Quat":
        x0, x1, x2, x3 = self
        return _new(Quat, (x0, -x1, -x2, -x3))

    def re(self) -> float:
        return self[0]

    def im(self) -> "Quat":
        _, x1, x2, x3 = self
        return _new(Quat, (0.0, x1, x2, x3))

    def im_modulus(self) -> float:
        _, x1, x2, x3 = self
        return math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)

    def modulus_sq(self) -> float:
        x0, x1, x2, x3 = self
        return x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3

    def modulus(self) -> float:
        return math.sqrt(self.modulus_sq())

    def inverse(self, tol: float = EPS) -> "Quat":
        n = self.modulus_sq()
        if math.sqrt(n) <= tol:
            raise SingularElement("quaternion modulus below tolerance")
        return self.conj() / n

    def power(self, n: int, tol: float = EPS) -> "Quat":
        if n < 0:
            return self.inverse(tol).power(-n)
        result = Q_ONE
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_unit_imaginary(self, tol: float = EPS) -> bool:
        s0, s1, s2, s3 = self * self
        return (
            abs(s0 + 1.0) <= tol
            and abs(s1) <= tol
            and abs(s2) <= tol
            and abs(s3) <= tol
        )

    def isclose(self, other: "Quat | float", tol: float = EPS) -> bool:
        x0, x1, x2, x3 = self
        y0, y1, y2, y3 = _as_quat(other)
        return (
            abs(x0 - y0) <= tol
            and abs(x1 - y1) <= tol
            and abs(x2 - y2) <= tol
            and abs(x3 - y3) <= tol
        )

    def is_zero(self, tol: float = EPS) -> bool:
        return self.modulus() <= tol

    def to_clifford(self) -> CliffordElement:
        w, a23, a13, a12 = self
        return _element_from_floats((w, 0.0, 0.0, 0.0, a12, a13, a23, 0.0))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)


def _as_quat(value: "Quat | float") -> Quat:
    if isinstance(value, Quat):
        return value
    if isinstance(value, (int, float)):
        return Quat(float(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion")


Q_ONE = Quat(1.0)
Q_ZERO = Quat()
Q23 = Quat(0.0, 1.0, 0.0, 0.0)
Q13 = Quat(0.0, 0.0, 1.0, 0.0)
Q12 = Quat(0.0, 0.0, 0.0, 1.0)


class QuatPair(NamedTuple):
    """Ordered couple (p, q) with x = w+ p + w- q."""

    p: Quat
    q: Quat

    def __str__(self) -> str:
        from .grammar import format_quat_pair

        return format_quat_pair(self.p, self.q)


def split(x: CliffordElement) -> QuatPair:
    """Quaternion pair of an element; closed-form inverse of :func:`join`."""
    c0, c1, c2, c3, c12, c13, c23, c123 = x.coeffs
    p = _new(Quat, (c0 + c123, c23 - c1, c13 + c2, c12 - c3))
    q = _new(Quat, (c0 - c123, c23 + c1, c13 - c2, c12 + c3))
    return QuatPair(p, q)


def join(p: "Quat | QuatPair", q: Quat | None = None) -> CliffordElement:
    """Element w+ p + w- q from its quaternion pair."""
    if q is None:
        p, q = p  # type: ignore[misc]
    assert isinstance(p, Quat)
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return _element_from_floats(
        (
            0.5 * (p0 + q0),
            0.5 * (q1 - p1),
            0.5 * (p2 - q2),
            0.5 * (q3 - p3),
            0.5 * (p3 + q3),
            0.5 * (p2 + q2),
            0.5 * (p1 + q1),
            0.5 * (p0 - q0),
        )
    )


def cone_residuals(x: CliffordElement) -> tuple[float, float]:
    """The two defining quantities of the cone; both vanish on it."""
    c = x.coeffs
    return c[7], c[2] * c[5] - c[1] * c[6] - c[3] * c[4]


def in_cone(x: CliffordElement, tol: float = EPS) -> bool:
    r1, r2 = cone_residuals(x)
    return abs(r1) <= tol and abs(r2) <= tol


def is_sqrt_minus_one(x: CliffordElement, tol: float = EPS) -> bool:
    """True when both split components square to -1 within tol."""
    p, q = split(x)
    return (p * p).isclose(-1.0, tol) and (q * q).isclose(-1.0, tol)


def inverse(x: CliffordElement, tol: float = EPS) -> CliffordElement:
    """Componentwise quaternionic inverse.

    The algebra has zero divisors (each idempotent annihilates the other),
    so inversion fails exactly when a split component has modulus <= tol.
    """
    p, q = split(x)
    return join(p.inverse(tol), q.inverse(tol))


def power(x: CliffordElement, n: int, tol: float = EPS) -> CliffordElement:
    """Integer power via the split; agrees with repeated multiplication."""
    p, q = split(x)
    return join(p.power(n, tol), q.power(n, tol))


class SphereDescriptor(NamedTuple):
    """A quaternionic 2-sphere {Re = center, |Im| = radius}.

    Radius 0 collapses to the single real point ``center``.
    """

    center: float
    radius: float

    def is_point(self, tol: float = EPS) -> bool:
        return abs(self.radius) <= tol

    def sample(self, unit: Quat) -> Quat:
        return Quat(self.center) + unit * self.radius


class ConePoint:
    """A certified point of the quadratic cone with cached slice data.

    Stored as (alpha, beta, i1, i2) with beta >= 0, representing the couple
    (alpha + i1*beta, alpha + i2*beta).  Real points carry ``i1 = i2 =
    None``.  Negative beta on construction is normalized by flipping both
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
        if beta <= tol:
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
        if self.is_real:
            return Quat(self.alpha)
        return Quat(self.alpha) + self.i1 * self.beta

    @property
    def q(self) -> Quat:
        if self.is_real:
            return Quat(self.alpha)
        return Quat(self.alpha) + self.i2 * self.beta

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
        scale = 1.0 + x.max_abs()
        r1, r2 = cone_residuals(x)
        if abs(r1) > tol * scale or abs(r2) > tol * scale * scale:
            raise NotInCone(
                f"cone residuals ({r1:.3e}, {r2:.3e}) exceed tolerance"
            )
        p, q = split(x)
        alpha = 0.5 * (p.re() + q.re())
        beta = 0.5 * (p.im_modulus() + q.im_modulus())
        if beta <= tol * scale:
            return cls(alpha, 0.0, None, None, tol)
        return cls(alpha, beta, p.im() / beta, q.im() / beta, tol)

    def __repr__(self) -> str:
        if self.is_real:
            return f"ConePoint({self.alpha!r})"
        return f"ConePoint({self.alpha!r}, {self.beta!r}, {self.i1!r}, {self.i2!r})"


def cone_point(x: float, y: float, i1: Quat, i2: Quat, tol: float = EPS) -> ConePoint:
    """The cone point with split (x + i1*y, x + i2*y)."""
    if y == 0.0:
        return ConePoint(x, 0.0, None, None, tol)
    if not (i1.is_unit_imaginary(tol) and i2.is_unit_imaginary(tol)):
        raise NotImaginaryUnit("slice units must square to -1")
    return ConePoint(x, y, i1, i2, tol)


def in_ball(point: ConePoint, radius: float) -> bool:
    """Membership in {n(x) < R}; R compares against the squared modulus."""
    if radius <= 0.0:
        raise ValueError("ball radius must be positive")
    return point.norm_value < radius
