"""Stem functions on a plane domain and the slice functions they induce.

A stem is one map from a plane point z = (alpha, beta) to four quaternions
(f1, f2, g1, g2), subject to the parity rule that the first/third
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

import math
import random
from typing import Callable, NamedTuple

from .clifford3 import EPS, CliffordElement, Quat, _new, join, split
from .errors import OutOfDomain, RealPoint
from . import bislice
from .qsplit import ConePoint


class _RectFields(NamedTuple):
    alpha_min: float
    alpha_max: float
    beta_max: float


class RectDomain(_RectFields):
    """Axially symmetric sampling rectangle [a0, a1] x [-b1, b1]."""

    __slots__ = ()

    def __new__(cls, alpha_min: float, alpha_max: float, beta_max: float) -> "RectDomain":
        if not all(map(math.isfinite, (alpha_min, alpha_max, beta_max))):
            raise ValueError("stem domain bounds must be finite")
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
    """The map ``(alpha, beta) -> (f1, f2, g1, g2)`` on its domain."""

    components: Callable[[float, float], tuple[Quat, Quat, Quat, Quat]]
    domain: RectDomain = DEFAULT_DOMAIN


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


def _tighter(reports):
    """Of the component pairs' reports, the one with the smaller margin
    ``tolerance - worst`` (the worst is the first field), a nan margin first."""
    return min(reports, key=lambda r: (not math.isnan(r.tolerance - r[0]), r.tolerance - r[0]))


class ParityReport(NamedTuple):
    max_violation: float
    samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def check_parity(stem: StemFunction, samples: int = 200, seed: int = 0) -> ParityReport:
    """Worst violation of the even/odd component rules over conjugate pairs.

    Each component pair, (f1, f2) and (g1, g2), is judged at its own size:
    it passes where its worst violation is negligible (degree 1,
    :func:`clifford3.negligible`) beside the pair's largest value at ``+b``
    (at ``-b`` the same, by parity), so its tolerance is ``EPS`` times that
    value, or 0 where it is not finite.  The report is the pair with the
    smaller margin."""
    if samples < 1:
        raise ValueError(f"parity check needs at least one sample, got {samples}")
    rng = random.Random(seed)
    dom = stem.domain
    worst_f = worst_g = size_f = size_g = 0.0
    for _ in range(samples):
        a = rng.uniform(dom.alpha_min, dom.alpha_max)
        b = rng.uniform(0.0, dom.beta_max)
        f1p, f2p, g1p, g2p = stem.components(a, b)
        f1m, f2m, g1m, g2m = stem.components(a, -b)
        worst_f = bislice.nan_max(worst_f, (f1p - f1m).modulus(), (f2p + f2m).modulus())
        worst_g = bislice.nan_max(worst_g, (g1p - g1m).modulus(), (g2p + g2m).modulus())
        # A nan value leaves a nan violation, so a plain max serves the size.
        size_f = max(size_f, f1p.modulus(), f2p.modulus())
        size_g = max(size_g, g1p.modulus(), g2p.modulus())
    return _tighter(
        ParityReport(w, samples, EPS * m if math.isfinite(m) else 0.0)
        for w, m in ((worst_f, size_f), (worst_g, size_g))
    )


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

    The samples are drawn with a fixed seed.  Each component pair, (f1, f2)
    and (g1, g2), is judged at its own size, and the report is the pair with
    the smaller margin.  A pair's pass threshold is ``c h^2 + 4 eps M / h``,
    truncation plus rounding (eps = 2^-52): c is 10 times the pair's largest
    observed second-derivative scale, floored at 1, and M the largest
    stencil value of the pair read.  If each value, read at the rounded points
    ``a +- h`` and ``b +- h``, lies within ``2 eps M`` of the stem at the
    intended point, a central difference moves by at most ``2 eps M / h``
    (its subtraction and the division by 2h round by eps times a
    derivative), and a residual, two of them differenced, by ``4 eps M /
    h``.  M understates the rounding where the values cancel: a stem summed
    from terms much larger than M errs by eps times those terms.  Past the
    truncation term, polynomial stems of degrees 0 to 8 at steps 1e-3 to
    1e-11 read at most ``1.6 eps M / h``.  A stencil value that is not
    finite leaves no threshold (0), so the check fails.

    The samples lie in ``[alpha_min + 2h, alpha_max - 2h] x
    [-beta_max + 2h, beta_max - 2h]``, so the stencil stays inside the
    domain; a domain narrower than 4h in alpha or in beta is refused.
    """
    if samples < 1:
        raise ValueError(f"Cauchy-Riemann check needs at least one sample, got {samples}")
    dom = stem.domain
    alphas = dom.alpha_min + 2 * h, dom.alpha_max - 2 * h
    betas = -dom.beta_max + 2 * h, dom.beta_max - 2 * h
    # A step that is not positive and finite is central_differences' to refuse.
    if 0.0 < h < math.inf and not (alphas[0] <= alphas[1] and betas[0] <= betas[1]):
        raise ValueError(
            f"Cauchy-Riemann check with step h = {h:.6g} needs a domain at least "
            f"4h wide in alpha and in beta, got {dom}"
        )
    rng = random.Random(0)
    worst = [0.0, 0.0]
    curvature = [0.0, 0.0]
    size = [0.0, 0.0]
    for _ in range(samples):
        a = rng.uniform(*alphas)
        b = rng.uniform(*betas)
        # The map once per stencil point; each component is differenced from these.
        stencil = ((a + h, b), (a - h, b)), ((a, b + h), (a, b - h))
        at = {pt: stem.components(*pt) for pt in ((a, b), *stencil[0], *stencil[1])}
        d = [bislice.central_differences(lambda u, v, k=k: at[u, v][k], a, b, h) for k in range(4)]
        for k, ((da1, db1), (da2, db2)) in enumerate((d[:2], d[2:])):
            worst[k] = bislice.nan_max(worst[k], (da1 - db2).modulus(), (db1 + da2).modulus())
            pair = [v.modulus() for values in at.values() for v in values[2 * k : 2 * k + 2]]
            size[k] = bislice.nan_max(size[k], *pair)
        for ahead, behind in stencil:
            for j, (c, up, down) in enumerate(zip(at[a, b], at[ahead], at[behind])):
                curvature[j // 2] = max(curvature[j // 2], ((up - c * 2.0 + down) / (h * h)).modulus())
    reports = []
    for w, c, m in zip(worst, curvature, size):
        tolerance = 10.0 * max(c, 1.0) * h * h + 4.0 * math.ulp(1.0) * m / h if math.isfinite(m) else 0.0
        reports.append(CauchyRiemannReport(w, tolerance, c, h, samples))
    return _tighter(reports)


# -- stem constructors -------------------------------------------------------------


def constant_stem(value: CliffordElement, domain: RectDomain = DEFAULT_DOMAIN) -> StemFunction:
    p, q = split(value)
    zero = Quat()
    return StemFunction(lambda a, b: (p, zero, q, zero), domain)


def stem_from_poly(
    poly: "bislice.BiSlicePoly", domain: RectDomain = DEFAULT_DOMAIN
) -> StemFunction:
    """Holomorphic stem of a polynomial.

    With z = alpha + i*beta, the component pairs are
    ``f1 + i f2 = sum z^n b_n`` and ``g1 + i g2 = sum z^n c_n`` where b, c
    are the split coefficient sequences: complex Horner in z over both
    components' eight real coefficient columns, the pass of the Cauchy node
    table (:func:`bislice._horner_values`) at one point.
    """
    rows = bislice._rows(*poly.split())

    def components(alpha: float, beta: float) -> tuple[Quat, Quat, Quat, Quat]:
        ((u0, u1, u2, u3, v0, v1, v2, v3),) = bislice._horner_values(rows, (complex(alpha, beta),))
        return (
            _new(Quat, (u0.real, u1.real, u2.real, u3.real)),
            _new(Quat, (u0.imag, u1.imag, u2.imag, u3.imag)),
            _new(Quat, (v0.real, v1.real, v2.real, v3.real)),
            _new(Quat, (v0.imag, v1.imag, v2.imag, v3.imag)),
        )

    return StemFunction(components, domain)
