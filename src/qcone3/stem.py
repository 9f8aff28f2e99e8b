"""Stem functions on a plane domain and the slice functions they induce.

A stem is four quaternion-valued component maps (f1, f2, g1, g2) of a plane
point z = (alpha, beta), subject to the parity rule that the first/third
components are even in beta and the second/fourth odd.  The induced function
takes the value ``w+ (f1 + I1 f2) + w- (g1 + I2 g2)`` at the cone point with
slice data (alpha, beta, I1, I2); parity makes this independent of the
representation (beta, I) vs (-beta, -I).

Holomorphy of the stem is the componentwise Cauchy-Riemann system
``d f1/d alpha = d f2/d beta`` and ``d f1/d beta = -d f2/d alpha`` (same for
g), which this module checks by central finite differences.

The spherical derivative is normalized as ``beta^{-1} F2`` so that the
identity function has spherical derivative 1 and the decomposition
``f(x) = value + Im(x) * derivative`` holds exactly.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .clifford3 import EPS, CliffordElement, Quat, _new, join, split
from .errors import OutOfDomain, RealPoint
from . import bislice
from .qsplit import ConePoint

ComponentMap = Callable[[float, float], Quat]


class _RectFields(NamedTuple):
    alpha_min: float
    alpha_max: float
    beta_max: float


class RectDomain(_RectFields):
    """Axially symmetric sampling rectangle [a0, a1] x [-b1, b1]."""

    __slots__ = ()

    def __new__(cls, alpha_min: float, alpha_max: float, beta_max: float) -> "RectDomain":
        if alpha_min > alpha_max or beta_max < 0:
            raise ValueError("empty stem domain")
        return super().__new__(cls, alpha_min, alpha_max, beta_max)

    def contains(self, alpha: float, beta: float) -> bool:
        return (
            self.alpha_min <= alpha <= self.alpha_max
            and abs(beta) <= self.beta_max
        )


DEFAULT_DOMAIN = RectDomain(-4.0, 4.0, 4.0)


class StemFunction(NamedTuple):
    f1: ComponentMap
    f2: ComponentMap
    g1: ComponentMap
    g2: ComponentMap
    domain: RectDomain = DEFAULT_DOMAIN

    def components(self, alpha: float, beta: float) -> tuple[Quat, Quat, Quat, Quat]:
        return (
            self.f1(alpha, beta),
            self.f2(alpha, beta),
            self.g1(alpha, beta),
            self.g2(alpha, beta),
        )


def _require_in_domain(stem: StemFunction, alpha: float, beta: float) -> None:
    if not stem.domain.contains(alpha, beta):
        raise OutOfDomain(f"({alpha}, {beta}) outside stem domain {stem.domain}")


def induce(stem: StemFunction, at: ConePoint) -> CliffordElement:
    """Value of the induced function at a cone point."""
    _require_in_domain(stem, at.alpha, at.beta)
    f1, f2, g1, g2 = stem.components(at.alpha, at.beta)
    if at.is_real:
        return join(f1, g1)
    return join(f1 + at.i1 * f2, g1 + at.i2 * g2)


def spherical_value(stem: StemFunction, at: ConePoint) -> CliffordElement:
    """The slice-independent part, join(f1, g1)."""
    _require_in_domain(stem, at.alpha, at.beta)
    f1, _, g1, _ = stem.components(at.alpha, at.beta)
    return join(f1, g1)


def spherical_derivative(stem: StemFunction, at: ConePoint) -> CliffordElement:
    """join(f2, g2) / beta; undefined at real points."""
    if at.is_real:
        raise RealPoint("spherical derivative is undefined on the real axis")
    _require_in_domain(stem, at.alpha, at.beta)
    _, f2, _, g2 = stem.components(at.alpha, at.beta)
    return join(f2 / at.beta, g2 / at.beta)


class ParityReport(NamedTuple):
    max_violation: float
    samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation < self.tolerance


def check_parity(stem: StemFunction, samples: int = 200, seed: int = 0) -> ParityReport:
    """Worst violation of the even/odd component rules over conjugate pairs."""
    rng = random.Random(seed)
    dom = stem.domain
    worst = 0.0
    for _ in range(max(1, samples)):
        a = rng.uniform(dom.alpha_min, dom.alpha_max)
        b = rng.uniform(0.0, dom.beta_max)
        f1p, f2p, g1p, g2p = stem.components(a, b)
        f1m, f2m, g1m, g2m = stem.components(a, -b)
        worst = bislice.nan_max(
            worst,
            (f1p - f1m).modulus(),
            (f2p + f2m).modulus(),
            (g1p - g1m).modulus(),
            (g2p + g2m).modulus(),
        )
    return ParityReport(worst, samples, EPS)


class CauchyRiemannReport(NamedTuple):
    max_residual: float
    tolerance: float
    second_derivative_scale: float
    step: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def check_cauchy_riemann(
    stem: StemFunction,
    h: float = 1e-5,
    samples: int = 100,
) -> CauchyRiemannReport:
    """Finite-difference Cauchy-Riemann residuals over interior samples.

    The samples are drawn with a fixed seed.  The pass threshold is
    ``c * h^2`` with c 10 times the largest observed second-derivative
    scale, floored at 1 so affine stems are judged against rounding noise,
    not against zero.
    """
    rng = random.Random(0)
    dom = stem.domain
    worst = 0.0
    curvature = 0.0
    for _ in range(max(1, samples)):
        a = rng.uniform(dom.alpha_min + 2 * h, dom.alpha_max - 2 * h)
        b = rng.uniform(-dom.beta_max + 2 * h, dom.beta_max - 2 * h)
        for one, two in ((stem.f1, stem.f2), (stem.g1, stem.g2)):
            da1, db1 = bislice.central_differences(one, a, b, h)
            da2, db2 = bislice.central_differences(two, a, b, h)
            worst = bislice.nan_max(worst, (da1 - db2).modulus(), (db1 + da2).modulus())
            for comp in (one, two):
                center = comp(a, b)
                dd_a = (comp(a + h, b) - center * 2.0 + comp(a - h, b)) / (h * h)
                dd_b = (comp(a, b + h) - center * 2.0 + comp(a, b - h)) / (h * h)
                curvature = max(curvature, dd_a.modulus(), dd_b.modulus())
    c = 10.0 * max(curvature, 1.0)
    return CauchyRiemannReport(worst, c * h * h, curvature, h, samples)


# -- stem constructors -------------------------------------------------------------


def constant_stem(value: CliffordElement, domain: RectDomain = DEFAULT_DOMAIN) -> StemFunction:
    p, q = split(value)
    zero = Quat()
    return StemFunction(
        lambda a, b: p,
        lambda a, b: zero,
        lambda a, b: q,
        lambda a, b: zero,
        domain,
    )


def stem_from_poly(
    poly: "bislice.BiSlicePoly", domain: RectDomain = DEFAULT_DOMAIN
) -> StemFunction:
    """Holomorphic stem of a polynomial.

    With z = alpha + i*beta, the component pairs are
    ``f1 + i f2 = sum z^n b_n`` and ``g1 + i g2 = sum z^n c_n`` where b, c
    are the split coefficient sequences.  Real and imaginary parts of the
    complex powers multiply the quaternion coefficients from the left.
    """
    fp, fq = poly.split()

    def build(coeffs: tuple[Quat, ...], pick_imag: bool) -> ComponentMap:
        def component(alpha: float, beta: float) -> Quat:
            # acc + c * w on floats, in the operator form's order.
            z = complex(alpha, beta)
            a0 = a1 = a2 = a3 = 0.0
            zn = complex(1.0, 0.0)
            for c0, c1, c2, c3 in coeffs:
                w = zn.imag if pick_imag else zn.real
                if w != 0.0:
                    a0 += c0 * w
                    a1 += c1 * w
                    a2 += c2 * w
                    a3 += c3 * w
                zn *= z
            return _new(Quat, (a0, a1, a2, a3))

        return component

    return StemFunction(
        build(fp.coeffs, False),
        build(fp.coeffs, True),
        build(fq.coeffs, False),
        build(fq.coeffs, True),
        domain,
    )
