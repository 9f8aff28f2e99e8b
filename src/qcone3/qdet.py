"""2x2 matrices over the quadratic cone: invertibility and determinant.

A matrix with entries in the algebra decomposes entrywise as
``A = w+ A' + w- A''`` into two quaternionic matrices, and matrix products
respect the decomposition.  The determinant of one quaternionic side is

    det = sqrt( n(a) n(d) + n(c) n(b) - 2 Re(d conj(b) a conj(c)) )

with n the squared modulus; the radicand is nonnegative because
``Re(q) <= |q|``, and it equals n(a (d - c a^{-1} b)) whenever the needed
inverses exist.  For cone entries the two sides give the same value, which
is taken as the determinant of A; the determinant is multiplicative over
matrix products.

The implementation evaluates the formula on both sides so the cone-entry
agreement is checkable, and defines the value through the first side for
arbitrary entries (needed when products of cone matrices leave the cone).
"""

from __future__ import annotations

import math

from .clifford3 import E0, EPS, ZERO, CliffordElement, Quat, join, split
from .errors import NegativeRadicand

QuatMatrix = tuple[tuple[Quat, Quat], tuple[Quat, Quat]]


class Matrix2:
    """Immutable 2x2 matrix over the algebra, held as its two split sides.

    The quaternionic sides ``tilde`` (A') and ``tilde2`` (A'') are the
    working form: determinant, invertibility and product run on them.  The
    entries ``a, b, c, d`` are the boundary view: the caller's own elements
    when built from entries, the joined sides when built from sides.
    """

    __slots__ = ("a", "b", "c", "d", "tilde", "tilde2")

    def __init__(
        self,
        a: CliffordElement,
        b: CliffordElement,
        c: CliffordElement,
        d: CliffordElement,
    ):
        (pa, qa), (pb, qb), (pc, qc), (pd, qd) = map(split, (a, b, c, d))
        self._store((a, b, c, d), ((pa, pb), (pc, pd)), ((qa, qb), (qc, qd)))

    def _store(self, entries: tuple, tilde: QuatMatrix, tilde2: QuatMatrix) -> None:
        for name, value in zip(self.__slots__, (*entries, tilde, tilde2)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix2 is immutable")

    def entries(self) -> tuple[CliffordElement, ...]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(E0, ZERO, ZERO, E0)

    @classmethod
    def from_quat_sides(cls, tilde: QuatMatrix, tilde2: QuatMatrix) -> "Matrix2":
        """The matrix whose split sides are ``tilde`` and ``tilde2``."""
        (pa, pb), (pc, pd) = tilde
        (qa, qb), (qc, qd) = tilde2
        m = cls.__new__(cls)
        m._store(
            (join(pa, qa), join(pb, qb), join(pc, qc), join(pd, qd)), tilde, tilde2
        )
        return m

    def __repr__(self) -> str:
        return f"Matrix2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def split_matrix(m: Matrix2) -> tuple[QuatMatrix, QuatMatrix]:
    """The two quaternionic sides (A', A'')."""
    return m.tilde, m.tilde2


def det_radicand(side: QuatMatrix) -> float:
    (a, b), (c, d) = side
    cross = d * b.conj() * a * c.conj()
    return (
        a.modulus_sq() * d.modulus_sq()
        + c.modulus_sq() * b.modulus_sq()
        - 2.0 * cross.re()
    )


def det_quat_side(side: QuatMatrix, tol: float = EPS) -> float:
    """Determinant of one quaternionic 2x2 matrix."""
    radicand = det_radicand(side)
    largest = max(e.modulus_sq() for row in side for e in row)
    scale = 1.0 + largest * largest
    if radicand < -tol * scale:
        raise NegativeRadicand(f"determinant radicand {radicand:.3e} is negative")
    return math.sqrt(max(radicand, 0.0))


def det(m: Matrix2, tol: float = EPS) -> float:
    """Determinant through the first split side.

    For cone entries both sides agree (see :func:`det_both_sides`); the
    first-side value extends the definition to arbitrary entries, which is
    what makes the product rule testable.
    """
    return det_quat_side(m.tilde, tol)


def det_both_sides(m: Matrix2, tol: float = EPS) -> tuple[float, float]:
    return det_quat_side(m.tilde, tol), det_quat_side(m.tilde2, tol)


def _quat_side_invertible(side: QuatMatrix, tol: float) -> bool:
    """Invertibility of one quaternionic side via the skip chain.

    Evaluates b(c - d b^{-1} a), a(d - c a^{-1} b), c(b - a c^{-1} d),
    d(a - b d^{-1} c) in order, skipping any whose inner inverse does not
    exist; invertible iff some computed expression is nonzero.
    """
    (a, b), (c, d) = side
    scale = 1.0 + max(e.modulus() for row in side for e in row)
    checks = (
        (b, lambda: b * (c - d * b.inverse(tol) * a)),
        (a, lambda: a * (d - c * a.inverse(tol) * b)),
        (c, lambda: c * (b - a * c.inverse(tol) * d)),
        (d, lambda: d * (a - b * d.inverse(tol) * c)),
    )
    for pivot, expr in checks:
        if pivot.modulus() <= tol * scale:
            continue
        if expr().modulus() > tol * scale:
            return True
    return False


def is_right_invertible(m: Matrix2, tol: float = EPS) -> bool:
    """Right invertibility, checked per split side.

    The algebra has zero divisors, so both quaternionic sides must pass;
    for cone entries this coincides with det > tolerance.
    """
    return _quat_side_invertible(m.tilde, tol) and _quat_side_invertible(
        m.tilde2, tol
    )


def matmul(m1: Matrix2, m2: Matrix2) -> Matrix2:
    """Matrix product, computed as :func:`quat_matmul` on each split side."""
    return Matrix2.from_quat_sides(
        quat_matmul(m1.tilde, m2.tilde), quat_matmul(m1.tilde2, m2.tilde2)
    )


def quat_matmul(s1: QuatMatrix, s2: QuatMatrix) -> QuatMatrix:
    (a1, b1), (c1, d1) = s1
    (a2, b2), (c2, d2) = s2
    return (
        (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2),
        (c1 * a2 + d1 * c2, c1 * b2 + d1 * d2),
    )
