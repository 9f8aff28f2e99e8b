"""Arithmetic of the real Clifford algebra with three anticommuting generators.

Elements live on the eight-dimensional basis (1, e1, e2, e3, e12, e13, e23,
e123) where the generators satisfy ``e_i e_j + e_j e_i = -2 delta_ij``.  The
even subalgebra (1, e23, e13, e12) is a copy of the quaternions, and the
central idempotents w+- = (1 +- e123)/2 split every element uniquely as
x = w+ p + w- q.  :func:`split` and :func:`join` move between the eight
coefficients and the pair in closed form, and the product is computed on the
pair: ``x y = join(p r, q s)`` for x = (p, q), y = (r, s).

An element keeps its eight coefficients as the boundary form, because in
floats ``join(split(x))`` need not be ``x`` (c0 = 0.1 and c123 = 0.7 come
back as c0 = 0.09999999999999998).

Coefficients are plain Python floats.  All values are immutable and every
operation is a pure function, so elements can be shared freely across
threads.
"""

from __future__ import annotations

import math
import sys
from operator import add, itemgetter, mul as _fmul, neg, sub
from typing import Iterable, NamedTuple

from .errors import SingularElement

#: Fixed coefficient order used everywhere, including serialized forms.
BASIS_NAMES = ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")

#: Default tolerance: relative in :func:`negligible`, absolute in the
#: comparisons of unit-size values (``isclose``, ``is_unit_imaginary``).
EPS = 1e-10


def negligible(value: float, scale: float, degree: int = 1, tol: float = EPS) -> bool:
    """``|value| <= tol * scale**degree`` for a value of that degree in inputs
    of size ``scale``: the one zero test, so no answer depends on the inputs'
    scale (Higham 2002, ch. 1-2).  The bound saturates and never raises; a
    zero scale accepts only an exact zero, an infinite or nan value nothing.
    """
    size = abs(value)
    bound = tol
    for _ in range(degree):
        bound *= scale
    return size <= bound and size != math.inf


# The conjugation is the anti-involution fixing 1 and e123 and negating the
# grade-1 and grade-2 part.
_CONJ_SIGNS = (1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0)


class CliffordElement:
    """Immutable element of the algebra, held as eight real coefficients.

    The coefficient order is ``(c0, c1, c2, c3, c12, c13, c23, c123)``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[float]):
        tup = tuple(float(c) for c in coeffs)
        if len(tup) != 8:
            raise ValueError(f"expected 8 coefficients, got {len(tup)}")
        object.__setattr__(self, "coeffs", tup)

    def __setattr__(self, name, value):
        raise AttributeError("CliffordElement is immutable")

    # -- named coefficient access -------------------------------------------------

    @property
    def c0(self) -> float:
        return self.coeffs[0]

    @property
    def c1(self) -> float:
        return self.coeffs[1]

    @property
    def c2(self) -> float:
        return self.coeffs[2]

    @property
    def c3(self) -> float:
        return self.coeffs[3]

    @property
    def c12(self) -> float:
        return self.coeffs[4]

    @property
    def c13(self) -> float:
        return self.coeffs[5]

    @property
    def c23(self) -> float:
        return self.coeffs[6]

    @property
    def c123(self) -> float:
        return self.coeffs[7]

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other: "CliffordElement | float") -> "CliffordElement":
        o = other if isinstance(other, CliffordElement) else _coerce(other)
        return _element_from_floats(tuple(map(add, self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: "CliffordElement | float") -> "CliffordElement":
        o = other if isinstance(other, CliffordElement) else _coerce(other)
        return _element_from_floats(tuple(map(sub, self.coeffs, o.coeffs)))

    def __rsub__(self, other: "CliffordElement | float") -> "CliffordElement":
        return _coerce(other) - self

    def __neg__(self) -> "CliffordElement":
        return _element_from_floats(tuple(map(neg, self.coeffs)))

    def __mul__(self, other: "CliffordElement | float") -> "CliffordElement":
        if isinstance(other, (int, float)):
            s = float(other)
            return _element_from_floats(tuple([a * s for a in self.coeffs]))
        p, q = split(self)
        r, s = split(other)
        return join(p * r, q * s)

    def __rmul__(self, other: float) -> "CliffordElement":
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, scalar: float) -> "CliffordElement":
        return self * (1.0 / float(scalar))

    def __eq__(self, other) -> bool:
        return isinstance(other, CliffordElement) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- involutions and scalar data ----------------------------------------------

    def conj(self) -> "CliffordElement":
        return _element_from_floats(tuple(map(_fmul, _CONJ_SIGNS, self.coeffs)))

    def magnitude(self) -> float:
        """Euclidean length of the coefficient vector, finite wherever it is one."""
        return math.hypot(*self.coeffs)

    def max_abs(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def isclose(self, other: "CliffordElement | float", tol: float = EPS) -> bool:
        o = _coerce(other)
        return all(abs(a - b) <= tol for a, b in zip(self.coeffs, o.coeffs))

    def is_zero(self, tol: float = EPS) -> bool:
        return all(abs(c) <= tol for c in self.coeffs)

    def __repr__(self) -> str:
        return f"CliffordElement({self.coeffs!r})"


_new_element = object.__new__
_set_coeffs = CliffordElement.coeffs.__set__


def _element_from_floats(coeffs: tuple[float, ...]) -> CliffordElement:
    """Wrap an 8-tuple of floats as an element without re-coercing it.

    Library results whose coefficients are floats already come through here;
    the public constructor keeps its ``float`` coercion and length check.
    """
    x = _new_element(CliffordElement)
    _set_coeffs(x, coeffs)
    return x


def _coerce(value: "CliffordElement | float") -> CliffordElement:
    if isinstance(value, CliffordElement):
        return value
    if isinstance(value, (int, float)):
        return scalar(float(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a Clifford element")


def scalar(value: float) -> CliffordElement:
    return CliffordElement((float(value), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))


#: The eight basis elements in coefficient order.
BASIS: tuple[CliffordElement, ...] = tuple(
    CliffordElement(float(i == k) for i in range(8)) for k in range(8)
)

E0, E1, E2, E3, E12, E13, E23, E123 = BASIS

ZERO = scalar(0.0)

#: The two central idempotents (1 +/- e123)/2 realizing the quaternion-pair
#: decomposition of the algebra.
OMEGA_PLUS = (E0 + E123) / 2.0
OMEGA_MINUS = (E0 - E123) / 2.0


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
        return math.hypot(x1, x2, x3)

    def modulus_sq(self) -> float:
        x0, x1, x2, x3 = self
        return x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3

    def modulus(self) -> float:
        return math.hypot(*self)

    def inverse(self) -> "Quat":
        """``conj(q) / |q|^2``; only the zero quaternion has none.  Where
        ``|q|^2`` or its reciprocal leaves the normal range, q is scaled
        exactly by the power of two that brings its largest coordinate into
        [1/2, 1), and back."""
        n = self.modulus_sq()
        if sys.float_info.min <= n <= 1.0 / sys.float_info.min:
            return self.conj() / n
        if not any(self):
            raise SingularElement("the zero quaternion has no inverse")
        e, (s,) = _scaled(self)
        return _times_power_of_two(s.conj() / s.modulus_sq(), -e)

    def power(self, n: int) -> "Quat":
        if n < 0:
            return self.inverse().power(-n)
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


def _times_power_of_two(q: Quat, e: int) -> Quat:
    """q * 2**e, exactly; 2**1024 is no float, but each half of e is one.

    A result past the float maximum reads inf (``math.ldexp`` raises).
    """
    f, g = math.ldexp(1.0, e // 2), math.ldexp(1.0, e - e // 2)
    w, i, j, k = q
    return _new(Quat, (w * f * g, i * f * g, j * f * g, k * f * g))


def _scaled(*quats: tuple[float, float, float, float]) -> tuple[int, tuple[Quat, ...]]:
    """``(e, quats * 2**-e)``, exactly, with e the exponent that brings the
    largest coordinate of all the 4-tuples into [1/2, 1) (0 if all are 0): a
    step whose squares would leave the float range runs on these, and its
    result, of degree d, goes back by ``2**(d * e)``."""
    e = math.frexp(max([max(map(abs, q)) for q in quats]))[1]
    return e, tuple([_times_power_of_two(q, -e) for q in quats])


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


def mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Clifford product, the bilinear extension of the generator relations."""
    return x * y


def conj(x: CliffordElement) -> CliffordElement:
    """The anti-involution fixing 1 and e123, negating grades 1 and 2."""
    return x.conj()


def trace(x: CliffordElement) -> CliffordElement:
    """t(x) = x + conj(x)."""
    return x + x.conj()


def norm_n(x: CliffordElement) -> CliffordElement:
    """n(x) = x * conj(x).  Real (a multiple of 1) exactly on the cone."""
    return x * x.conj()
