"""2x2 matrices over the quadratic cone: invertibility and determinant.

A matrix with entries in the algebra decomposes entrywise as
``A = w+ A' + w- A''`` into two quaternionic matrices, and matrix products
respect the decomposition.  The determinant of one quaternionic side
``((a, b), (c, d))`` is its Dieudonne determinant, computed as a pivoted
Schur complement:

    det = |p| |t - r p^{-1} q|

Here ``p`` is the entry holding the side's largest absolute coordinate m,
brought to the corner by a row swap, a column swap or both, so
``((p, q), (r, t))`` is ``((a, b), (c, d))``, ``((b, a), (d, c))``,
``((c, d), (a, b))`` or ``((d, c), (b, a))``; swaps keep the modulus of the
Dieudonne determinant.  The pivot column is divided by m, so dividing by
``p`` is safe; no quantity is squared, so det is finite whenever it is
representable, and it is exactly homogeneous of degree 2 under scaling by
powers of two.  An all-zero side has determinant 0.  The form has no
cancellation: it is backward stable, where the paper's formula

    det = sqrt( n(a) n(d) + n(c) n(b) - 2 Re(d conj(b) a conj(c)) )

(n the squared modulus) is the same value in exact arithmetic but loses
relative accuracy on nearly singular sides and overflows when ``n(a)n(d)``
does.  The test suite keeps that formula as its oracle.

The determinant of A is taken through the first side; for the paper's
examples both sides agree, but the agreement is not an identity, so
:func:`det_both_sides` gives both.  The determinant is multiplicative over
matrix products on each side.  A side is invertible when det, of degree
2, is not negligible: ``det / m**2 > tol``, the ratio read off the same
numbers.  A is right invertible when both sides are.
"""

from __future__ import annotations

import sys

from .clifford3 import E0, EPS, ZERO, CliffordElement, Quat, _scaled, join, split

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


def _schur(side: QuatMatrix) -> tuple[float, float]:
    """``(det, det / m**2)`` of one quaternionic side, ``|p| |t - r p^-1 q|``,
    with m the side's largest absolute coordinate.

    ``entries[i ^ k]`` is the side with entry k swapped to the corner.  The
    pivot column ``p, r`` is divided by m, so ``1 <= |p| <= 2`` and
    ``|r p^-1| <= 2``; for m > 1, ``q`` and ``t`` enter divided by 16, so no
    coordinate of the complement overflows (nor, for m <= 1, underflows),
    and nothing is squared.  Only the pivot column is brought to unit size:
    scaling the whole side into [1/2, 1) would flush its small entries to
    zero, and ``diag(1.7e308, 1e-300)``, det 1.7e8, would read 0.  A
    subnormal m, whose reciprocal overflows, is first scaled exactly into
    [1/2, 1) with the whole side; its det, at most 16 m**2, is then 0.
    """
    entries = (*side[0], *side[1])
    peaks = [max(map(abs, e)) for e in entries]
    m = max(peaks)
    if m == 0.0:
        return 0.0, 0.0
    if m < sys.float_info.min:  # 1 / m would overflow: scale exactly first
        _, (a, b, c, d) = _scaled(*entries)
        return 0.0, _schur(((a, b), (c, d)))[1]
    k = peaks.index(m)
    s = 1.0 / m
    p, q, r, t = (entries[i ^ k] for i in range(4))
    p, r = p * s, r * s
    pivot = p.modulus()
    c = 0.0625 if m > 1.0 else 1.0
    complement = (t * c - r * p.inverse() * (q * c)).modulus() / c
    return pivot * complement * m, pivot * (complement / m)


def det(m: Matrix2) -> float:
    """Determinant through the first split side.

    Both sides agree on the paper's examples (see :func:`det_both_sides`);
    the first-side value extends the definition to arbitrary entries, which
    is what makes the product rule testable.
    """
    return _schur(m.tilde)[0]


def det_both_sides(m: Matrix2) -> tuple[float, float]:
    return _schur(m.tilde)[0], _schur(m.tilde2)[0]


def is_right_invertible(m: Matrix2, tol: float = EPS) -> bool:
    """Right invertibility: ``det > tol * m**2`` on both split sides.

    The algebra has zero divisors, so both quaternionic sides must pass.
    ``det / m**2`` comes from the computation that gives det, without m**2.
    """
    return _schur(m.tilde)[1] > tol and _schur(m.tilde2)[1] > tol


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
