"""Arithmetic of the real Clifford algebra with three anticommuting generators.

Elements live on the eight-dimensional basis (1, e1, e2, e3, e12, e13, e23,
e123) where the generators satisfy ``e_i e_j + e_j e_i = -2 delta_ij``.  The
signed product table is generated once at import time from those relations by
canonical reordering with sign tracking, so no entry is hand transcribed.

Coefficients are plain Python floats.  All values are immutable and every
operation is a pure function, so elements can be shared freely across
threads.
"""

from __future__ import annotations

import math
from operator import add, mul as _fmul, neg, sub
from typing import Iterable

#: Fixed coefficient order used everywhere, including serialized forms.
BASIS_NAMES = ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")

#: Default absolute tolerance for floating-point comparisons.
EPS = 1e-10

# Each basis element is the ordered product of a subset of the generators
# {1, 2, 3}; bit k of the mask marks generator e_{k+1}.
_BASIS_MASKS = (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
_MASK_TO_INDEX = {mask: idx for idx, mask in enumerate(_BASIS_MASKS)}


def _mask_bits(mask: int) -> list[int]:
    return [k for k in range(3) if mask >> k & 1]


def _basis_product(ma: int, mb: int) -> tuple[int, float]:
    """Product of two basis subsets: result mask and accumulated sign.

    Moving each generator of the right factor into canonical position costs
    one sign flip per transposition; each repeated generator then squares to
    -1.
    """
    swaps = 0
    for b in _mask_bits(mb):
        swaps += sum(1 for a in _mask_bits(ma) if a > b)
    repeats = bin(ma & mb).count("1")
    sign = -1.0 if (swaps + repeats) % 2 else 1.0
    return _MASK_TO_INDEX[ma ^ mb], sign


_PRODUCT_TABLE: tuple[tuple[tuple[int, float], ...], ...] = tuple(
    tuple(_basis_product(ma, mb) for mb in _BASIS_MASKS) for ma in _BASIS_MASKS
)

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
        acc = [0.0] * 8
        xs = self.coeffs
        ys = other.coeffs
        for i in range(8):
            xi = xs[i]
            if xi == 0.0:
                continue
            row = _PRODUCT_TABLE[i]
            for j in range(8):
                yj = ys[j]
                if yj == 0.0:
                    continue
                k, sign = row[j]
                acc[k] += sign * xi * yj
        return _element_from_floats(tuple(acc))

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
        """Euclidean length of the coefficient vector."""
        return math.sqrt(sum(c * c for c in self.coeffs))

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


def element(
    c0: float = 0.0,
    c1: float = 0.0,
    c2: float = 0.0,
    c3: float = 0.0,
    c12: float = 0.0,
    c13: float = 0.0,
    c23: float = 0.0,
    c123: float = 0.0,
) -> CliffordElement:
    """Keyword constructor in the fixed coefficient order."""
    return CliffordElement((c0, c1, c2, c3, c12, c13, c23, c123))


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
