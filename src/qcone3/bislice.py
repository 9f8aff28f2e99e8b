"""Polynomials over the algebra with right coefficients and their calculus.

A polynomial here is a finite coefficient sequence a0..ad representing
``sum x^n a_n`` (variable powers on the left).  Splitting every coefficient
turns such a polynomial into a pair of quaternionic polynomials, and that
pair is its working form: :class:`BiSlicePoly` splits its coefficients once,
at construction, and evaluation, degree, the star product, factor
expansion, the regular conjugate and the symmetrization all run on the two
:class:`QuatPoly` components.  ``BiSlicePoly.coeffs`` is the view for the
boundary (grammar, records): the caller's own coefficients when the
polynomial was built from coefficients, the joined pair otherwise.

The star product of two polynomials is coefficient convolution with the
noncommutative rule ``c_k = sum_{i+j=k} a_i b_j``, one convolution per
component.  Where the left factor is invertible at a point the product also
has the pointwise form ``f(x) * g(f(x)^{-1} x f(x))``; both forms are
implemented and cross-checked in the tests.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

from .clifford3 import E0, EPS, Q_ONE, CliffordElement, Quat, QuatPair, ZERO, _new, join, negligible, scalar, split
from .errors import NotImaginaryUnit, NotInvertibleAtPoint, NotOrthogonal, RealPoint
from .qsplit import ConePoint


class QuatPoly:
    """Quaternionic polynomial with right coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Quat | float]):
        tup = tuple(c if isinstance(c, Quat) else Quat(float(c)) for c in coeffs)
        object.__setattr__(self, "coeffs", tup if tup else (Quat(),))

    def __setattr__(self, name, value):
        raise AttributeError("QuatPoly is immutable")

    def degree(self, tol: float = EPS) -> int:
        """Largest k whose coefficient is not negligible beside the largest."""
        sizes = [c.modulus() for c in self.coeffs]
        top = max(sizes)
        for k in range(len(sizes) - 1, -1, -1):
            if not negligible(sizes[k], top, tol=tol):
                return k
        return -1

    def eval(self, p: Quat) -> Quat:
        # Horner nesting keeps the coefficients on the right:
        # a0 + p(a1 + p(a2 + ...)).  Each step is ``p * acc + a`` written out
        # on floats, with Quat.__mul__'s expressions in its order.
        x0, x1, x2, x3 = p
        y0 = y1 = y2 = y3 = 0.0
        for a0, a1, a2, a3 in reversed(self.coeffs):
            y0, y1, y2, y3 = (
                x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3 + a0,
                x0 * y1 + x1 * y0 - x2 * y3 + x3 * y2 + a1,
                x0 * y2 + x2 * y0 + x1 * y3 - x3 * y1 + a2,
                x0 * y3 + x3 * y0 - x1 * y2 + x2 * y1 + a3,
            )
        return _new(Quat, (y0, y1, y2, y3))

    def star(self, other: "QuatPoly") -> "QuatPoly":
        # out[i + j] + a * b on floats, in the operator form's order; a zero
        # coefficient (either sign) contributes nothing and is skipped.
        n = len(self.coeffs) + len(other.coeffs) - 1
        o0, o1, o2, o3 = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
        for i, (x0, x1, x2, x3) in enumerate(self.coeffs):
            if not (x0 or x1 or x2 or x3):
                continue
            for k, (y0, y1, y2, y3) in enumerate(other.coeffs, i):
                o0[k] += x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3
                o1[k] += x0 * y1 + x1 * y0 - x2 * y3 + x3 * y2
                o2[k] += x0 * y2 + x2 * y0 + x1 * y3 - x3 * y1
                o3[k] += x0 * y3 + x3 * y0 - x1 * y2 + x2 * y1
        return _poly(tuple([_new(Quat, c) for c in zip(o0, o1, o2, o3)]))

    def conj_coeffs(self) -> "QuatPoly":
        return _poly(tuple([a.conj() for a in self.coeffs]))

    def symmetrization(self) -> "QuatPoly":
        return self.star(self.conj_coeffs())

    def scale(self, s: float) -> "QuatPoly":
        return _poly(tuple([a * s for a in self.coeffs]))

    def max_coeff(self) -> float:
        return max(a.modulus() for a in self.coeffs)

    def __repr__(self) -> str:
        return f"QuatPoly({self.coeffs!r})"

    @classmethod
    def from_factors(cls, constants: Sequence[Quat]) -> "QuatPoly":
        """Expand (p - c1)*(p - c2)*... by convolution."""
        poly = _poly((Q_ONE,))
        for c in constants:
            poly = poly.star(_poly((-c, Q_ONE)))
        return poly


_set_poly_coeffs = QuatPoly.coeffs.__set__


def _poly(coeffs: tuple[Quat, ...]) -> QuatPoly:
    """Library results: a nonempty tuple of Quat, wrapped without re-coercion."""
    poly = object.__new__(QuatPoly)
    _set_poly_coeffs(poly, coeffs)
    return poly


class BiSlicePoly:
    """Polynomial over the full algebra with right coefficients.

    Held as the pair of its split components, two :class:`QuatPoly` of
    equal length; ``coeffs`` is the coefficient view of that pair.
    """

    __slots__ = ("coeffs", "_pair")

    def __init__(self, coeffs: Iterable[CliffordElement | float]):
        tup = tuple(
            c if isinstance(c, CliffordElement) else scalar(float(c)) for c in coeffs
        ) or (ZERO,)
        p, q = zip(*map(split, tup))
        object.__setattr__(self, "coeffs", tup)
        object.__setattr__(self, "_pair", (_poly(p), _poly(q)))

    @classmethod
    def from_pair(cls, p: QuatPoly, q: QuatPoly) -> "BiSlicePoly":
        """The polynomial whose split components are ``p`` and ``q``."""
        if len(p.coeffs) != len(q.coeffs):
            raise ValueError("split components must have equal length")
        poly = cls.__new__(cls)
        object.__setattr__(poly, "coeffs", tuple(map(join, p.coeffs, q.coeffs)))
        object.__setattr__(poly, "_pair", (p, q))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("BiSlicePoly is immutable")

    def degree(self, tol: float = EPS) -> int:
        """Largest k whose coefficient has a split component not negligible
        beside that component's largest coefficient."""
        return max(side.degree(tol) for side in self._pair)

    def split(self) -> tuple[QuatPoly, QuatPoly]:
        return self._pair

    def eval(self, x: "CliffordElement | ConePoint") -> CliffordElement:
        p, q = _point_pair(x)
        fp, fq = self._pair
        return join(fp.eval(p), fq.eval(q))

    def max_coeff(self) -> float:
        """Largest coefficient magnitude, sqrt((|p_k|^2 + |q_k|^2) / 2), finite
        wherever the coefficients are."""
        p, q = self._pair
        return max([math.hypot(*a, *b) for a, b in zip(p.coeffs, q.coeffs)]) / math.sqrt(2.0)

    def __repr__(self) -> str:
        return f"BiSlicePoly({self.coeffs!r})"

    @classmethod
    def from_factors(
        cls, constants: Sequence[CliffordElement], lead: float = 1.0
    ) -> "BiSlicePoly":
        """Expand lead*(x - c1)*(x - c2)*... on each component."""
        pairs = [split(c) for c in constants]
        return cls.from_pair(
            QuatPoly.from_factors([p for p, _ in pairs]).scale(lead),
            QuatPoly.from_factors([q for _, q in pairs]).scale(lead),
        )

    @classmethod
    def monomial(cls, n: int) -> "BiSlicePoly":
        """x^n."""
        if n < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls([ZERO] * n + [E0])


def _point_pair(x: "CliffordElement | ConePoint") -> QuatPair:
    if isinstance(x, ConePoint):
        return x.pair
    return split(x)


def star_mul(f: BiSlicePoly, g: BiSlicePoly) -> BiSlicePoly:
    """Coefficient convolution c_k = sum_{i+j=k} a_i b_j, per component."""
    (fp, fq), (gp, gq) = f.split(), g.split()
    return BiSlicePoly.from_pair(fp.star(gp), fq.star(gq))


def _horner_bound(poly: QuatPoly, size: float) -> float:
    """``sum |a_k| size^k``, which bounds ``|poly(x)|`` for ``|x| = size``."""
    bound = 0.0
    for c in reversed(poly.coeffs):
        bound = bound * size + c.modulus()
    return bound


def star_mul_pointwise(
    f: BiSlicePoly,
    g: BiSlicePoly,
    x: "CliffordElement | ConePoint",
    tol: float = EPS,
) -> CliffordElement:
    """Pointwise star product f(x) g(f(x)^{-1} x f(x)).

    Requires f(x) to be invertible componentwise.  When both components of
    f(x) vanish the product vanishes too and 0 is returned; when exactly one
    vanishes the conjugation is undefined and the call fails.  A component
    vanishes when negligible beside the size of its terms, ``sum |a_k| |x|^k``.
    """
    p, q = _point_pair(x)
    fp, fq = f.split()
    gp, gq = g.split()
    a = fp.eval(p)
    b = fq.eval(q)
    a_zero = negligible(a.modulus(), _horner_bound(fp, p.modulus()), tol=tol)
    b_zero = negligible(b.modulus(), _horner_bound(fq, q.modulus()), tol=tol)
    if a_zero and b_zero:
        return ZERO
    if a_zero or b_zero:
        raise NotInvertibleAtPoint(
            "left factor has exactly one vanishing split component"
        )
    return join(a * gp.eval(a.inverse() * p * a), b * gq.eval(b.inverse() * q * b))


def regular_conjugate(poly: BiSlicePoly) -> BiSlicePoly:
    """Coefficientwise conjugation; splits to the componentwise conjugates."""
    p, q = poly.split()
    return BiSlicePoly.from_pair(p.conj_coeffs(), q.conj_coeffs())


def symmetrization(poly: BiSlicePoly) -> BiSlicePoly:
    p, q = poly.split()
    return BiSlicePoly.from_pair(p.symmetrization(), q.symmetrization())


class SliceSamples(NamedTuple):
    """Component values on two sampling slices, for the representation formula.

    ``f_plus``/``f_minus`` are the first component at alpha +/- w1*beta and
    ``g_plus``/``g_minus`` the second component at alpha +/- w2*beta.
    """

    f_plus: Quat
    f_minus: Quat
    g_plus: Quat
    g_minus: Quat
    w1: Quat
    w2: Quat


def sample_slice_values(
    poly: BiSlicePoly, x: ConePoint, w1: Quat, w2: Quat
) -> SliceSamples:
    """Evaluate the split components of ``poly`` on the slices of w1, w2."""
    if not (w1.is_unit_imaginary() and w2.is_unit_imaginary()):
        raise NotImaginaryUnit("sampling units must square to -1")
    fp, fq = poly.split()
    a, b = x.alpha, x.beta
    return SliceSamples(
        fp.eval(Quat(a) + w1 * b),
        fp.eval(Quat(a) - w1 * b),
        fq.eval(Quat(a) + w2 * b),
        fq.eval(Quat(a) - w2 * b),
        w1,
        w2,
    )


def representation_formula(samples: SliceSamples, x: ConePoint) -> CliffordElement:
    """Rebuild the value at ``x`` from two-point samples on arbitrary slices.

    Componentwise this is the slice-function reconstruction
    ``(F+ + F-)/2 - (I W / 2)(F+ - F-)``: the even part is slice
    independent and the odd part transports from the sampling unit W to the
    target unit I.  At real points the odd parts vanish and the even parts
    pass through unchanged.
    """
    if not (samples.w1.is_unit_imaginary() and samples.w2.is_unit_imaginary()):
        raise NotImaginaryUnit("sampling units must square to -1")
    even_p = (samples.f_plus + samples.f_minus) * 0.5
    even_q = (samples.g_plus + samples.g_minus) * 0.5
    if x.is_real:
        return join(even_p, even_q)
    odd_p = (samples.f_plus - samples.f_minus) * 0.5
    odd_q = (samples.g_plus - samples.g_minus) * 0.5
    val_p = even_p - x.i1 * samples.w1 * odd_p
    val_q = even_q - x.i2 * samples.w2 * odd_q
    return join(val_p, val_q)


def _inner(u: Quat, v: Quat) -> float:
    return u.w * v.w + u.a23 * v.a23 + u.a13 * v.a13 + u.a12 * v.a12


def splitting_projection(
    poly: QuatPoly, i: Quat, k: Quat
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Decompose the restriction to the plane of ``i`` as A + B*k.

    ``i`` and ``k`` must be orthogonal imaginary units.  Each coefficient is
    projected onto span{1, i} and span{k, i*k}; the two complex coefficient
    sequences A, B are holomorphic data on that plane and reassemble the
    restriction exactly.
    """
    if not (i.is_unit_imaginary() and k.is_unit_imaginary()):
        raise NotImaginaryUnit("plane units must square to -1")
    if abs(_inner(i, k)) > EPS:
        raise NotOrthogonal("plane units must be perpendicular")
    ik = i * k
    a = tuple(complex(_inner(c, Quat(1.0)), _inner(c, i)) for c in poly.coeffs)
    b = tuple(complex(_inner(c, k), _inner(c, ik)) for c in poly.coeffs)
    return a, b


SliceMap = Callable[[float, float], CliffordElement]


def slice_map(target: "BiSlicePoly | Callable", x: ConePoint) -> SliceMap:
    """The restriction (u, v) -> value along the slices of ``x``.

    Accepts a polynomial (evaluated through its split) or a callable taking
    a CliffordElement.
    """
    if x.is_real:
        raise RealPoint("slice restriction needs a non-real base point")
    i1, i2 = x.i1, x.i2
    if isinstance(target, BiSlicePoly):
        fp, fq = target.split()

        def phi(u: float, v: float) -> CliffordElement:
            return join(fp.eval(Quat(u) + i1 * v), fq.eval(Quat(u) + i2 * v))

        return phi

    def phi_fn(u: float, v: float) -> CliffordElement:
        return target(join(Quat(u) + i1 * v, Quat(u) + i2 * v))

    return phi_fn


def nan_max(*values: float) -> float:
    """Largest of ``values``, or nan if any of them is nan.

    ``max`` keeps a nan only in first place (``max(0.0, nan)`` is 0.0), so a
    running worst case built with it would hide a nan residual.
    """
    return math.nan if any(map(math.isnan, values)) else max(values)


def central_differences(f: Callable, u: float, v: float, h: float) -> tuple:
    """Central differences (df/du, df/dv) at (u, v) with step h, O(h^2)."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError("finite-difference step must be positive and finite")
    du = (f(u + h, v) - f(u - h, v)) / (2.0 * h)
    dv = (f(u, v + h) - f(u, v - h)) / (2.0 * h)
    return du, dv


def dbar_residual(
    target: "BiSlicePoly | Callable", x: ConePoint, h: float = 1e-5
) -> float:
    """Finite-difference residual of the two-slice regularity operator.

    Applies (1/2)[w+ (d_u + I d_v) + w- (d_u + J d_v)] with central
    differences of step h along the slices of ``x``; O(h^2) for regular
    targets, O(1) for maps such as pointwise conjugation.
    """
    du, dv = central_differences(slice_map(target, x), x.alpha, x.beta, h)
    pu, qu = split(du)
    pv, qv = split(dv)
    res_p = (pu + x.i1 * pv) * 0.5
    res_q = (qu + x.i2 * qv) * 0.5
    return join(res_p, res_q).magnitude()


def dbar_residual_single(
    target: "BiSlicePoly | Callable", x: ConePoint, h: float = 1e-5
) -> float:
    """Residual of the one-operator form (1/2)(d_u + K d_v), K = join(I, J).

    Algebraically identical to :func:`dbar_residual`.  It works on whole
    elements, but the Clifford product ``K dv`` itself runs on the split
    pair, so the two differ only in rounding, not as independent checks.
    """
    du, dv = central_differences(slice_map(target, x), x.alpha, x.beta, h)
    k = join(x.i1, x.i2)
    return ((du + k * dv) * 0.5).magnitude()
