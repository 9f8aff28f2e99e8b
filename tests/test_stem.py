"""Stem components, parity, holomorphy checks, spherical value/derivative."""

import math
import random

import pytest

from qcone3 import (
    E0,
    E1,
    E23,
    BiSlicePoly,
    ConePoint,
    Quat,
    RectDomain,
    StemFunction,
    check_cauchy_riemann,
    check_parity,
    cone_point,
    constant_stem,
    induce,
    join,
    scalar,
    spherical_derivative,
    spherical_value,
    stem_from_poly,
)
from qcone3.errors import OutOfDomain, RealPoint
from qcone3.grammar import parse_poly
from qcone3.clifford3 import Q13, Q23
from helpers import rand_cone_point, rand_poly

SQ = stem_from_poly(BiSlicePoly.monomial(2))
IDENT = stem_from_poly(BiSlicePoly.monomial(1))


def unit_mix(a, b, c):
    v = Quat(0.0, a, b, c)
    return v / v.modulus()


def test_induce_identity_and_constant():
    rng = random.Random(0)
    for _ in range(50):
        x = rand_cone_point(rng)
        assert induce(IDENT, x).isclose(x.element, 1e-12)
    c = 2 * E23 - E0 + E1
    st = constant_stem(c)
    assert induce(st, rand_cone_point(rng)).isclose(c, 1e-14)


def test_induce_square_stem():
    assert induce(SQ, ConePoint.from_element(E1)).isclose(-E0, 1e-12)
    from qcone3 import power

    rng = random.Random(1)
    for _ in range(50):
        x = rand_cone_point(rng)
        assert induce(SQ, x).isclose(power(x.element, 2), 1e-10)


def test_induce_out_of_domain():
    small = stem_from_poly(rand_poly(random.Random(2), 2), RectDomain(-1, 1, 1))
    with pytest.raises(OutOfDomain):
        induce(small, cone_point(2.0, 0.5, Q23, Q13))


def test_rect_domain_validates_and_is_immutable():
    for bounds in ((1.0, 0.0, 1.0), (0.0, 1.0, -1.0)):
        with pytest.raises(ValueError):
            RectDomain(*bounds)
    for bad in (math.nan, math.inf, -math.inf):
        for field in range(3):
            bounds = [-1.0, 1.0, 2.0]
            bounds[field] = bad
            with pytest.raises(ValueError, match="finite"):
                RectDomain(*bounds)
    dom = RectDomain(-1.0, 1.0, 2.0)
    assert repr(dom) == "RectDomain(alpha_min=-1.0, alpha_max=1.0, beta_max=2.0)"
    with pytest.raises(AttributeError):
        dom.beta_max = 3.0


def test_parity_reports():
    assert check_parity(IDENT).max_violation == 0
    assert check_parity(SQ).passed
    constant_second = StemFunction(lambda a, b: (Quat(a), Quat(1.0), Quat(a), Quat(b)))
    report = check_parity(constant_second)
    assert not report.passed and report.max_violation >= 2.0


NOT_HOLO = StemFunction(lambda a, b: (Quat(a * a), Quat(0.0), Quat(a), Quat(b)))


@pytest.mark.parametrize("f1", [1e12, 1e308])
def test_cauchy_riemann_judges_each_pair_at_its_own_size(f1):
    # (g1, g2) = (a, -b) is conjugation, residual 2.  Judged by one scale over
    # all four components, f1 = 1e12 read tolerance 88.8 at h = 1e-5, and f1
    # = 1e308 overflowed the curvature, so the tolerance read inf.
    report = check_cauchy_riemann(StemFunction(lambda a, b: (Quat(f1), Quat(0.0), Quat(a), Quat(-b))), 1e-5)
    assert not report.passed and report.max_residual > 1.9 and report.tolerance < 1e-8, report


@pytest.mark.parametrize(
    "components",
    [
        # f2 = s is even, not odd: the violation 2s passed an absolute 1e-10 at s = 1e-12
        lambda a, b, s=1e-12: (Quat(s * a), Quat(s), Quat(s * a), Quat(s * b)),
        # g2 = 1 is even beside f1 = 1e12, a pair of its own
        lambda a, b: (Quat(1e12), Quat(0.0), Quat(a), Quat(1.0)),
    ],
)
def test_parity_judges_each_pair_at_its_own_size(components):
    report = check_parity(StemFunction(components))
    assert not report.passed and report.max_violation > 1e4 * report.tolerance, report


def test_checks_pass_the_zero_stem():
    # Every value is 0, so each pair's tolerance is 0 and its violation exactly 0.
    zero = StemFunction(lambda a, b: (Quat(),) * 4)
    assert check_parity(zero) == (0.0, 200, 0.0) and check_parity(zero).passed
    assert check_cauchy_riemann(zero, 1e-5).passed


def test_cauchy_riemann_reports():
    assert check_cauchy_riemann(IDENT, 1e-5).max_residual < 1e-10
    assert check_cauchy_riemann(SQ, 1e-5).passed
    assert not check_cauchy_riemann(NOT_HOLO, 1e-5).passed


@pytest.mark.parametrize("h", [10.0**-k for k in range(3, 10)])
def test_cauchy_riemann_threshold_counts_rounding(h):
    # Below h = 1e-5 rounding, about eps max|F| / h, outgrows the truncation
    # term c h^2: at h = 1e-9 this holomorphic stem reads a residual of
    # 4.3e-5 where c h^2 is about 1e-12.
    holo = stem_from_poly(parse_poly("coeffs: [1, e1, e12, 3e23]"))
    report = check_cauchy_riemann(holo, h, samples=50)
    assert report.passed, report
    not_holo = check_cauchy_riemann(NOT_HOLO, h)
    assert not not_holo.passed and not_holo.max_residual > 7.9


def test_cauchy_riemann_fails_where_a_stencil_value_is_not_finite():
    # inf at the centre of every stencil only (the check reads each stencil's
    # centre first): each central difference skips the centre, so the
    # residuals stay finite, but no threshold is formed.
    calls = []

    def centre_inf(a, b):
        calls.append(None)
        return IDENT.components(a, b) if len(calls) % 5 != 1 else (Quat(math.inf),) * 4

    report = check_cauchy_riemann(StemFunction(centre_inf), 1e-5, samples=3)
    assert math.isfinite(report.max_residual) and report.tolerance == 0.0
    assert not report.passed


@pytest.mark.parametrize("samples", [0, -1])
def test_checks_refuse_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="at least one sample"):
        check_parity(IDENT, samples)
    with pytest.raises(ValueError, match="at least one sample"):
        check_cauchy_riemann(IDENT, 1e-5, samples)


def _recorded(domain: RectDomain, seen: list) -> StemFunction:
    """The identity's stem on ``domain``, keeping every point it is evaluated at."""

    def components(alpha: float, beta: float):
        seen.append((alpha, beta))
        return IDENT.components(alpha, beta)

    return StemFunction(components, domain)


@pytest.mark.parametrize("h", [1e-5, 2.0**-17])
def test_cauchy_riemann_refuses_a_domain_narrower_than_its_stencil(h):
    # The samples lie 2h inside the domain, so a width of exactly 4h in alpha,
    # or a beta_max of exactly 2h, leaves one line of samples and one ulp less
    # leaves none.  Before, RectDomain(0.0, 1e-6, 1.0) at h = 1e-5 evaluated
    # alpha from -2.3e-5 to 1.4e-5 and passed.
    accepted = (
        RectDomain(0.0, 4 * h, 1.0),
        RectDomain(-2 * h, 2 * h, 1.0),
        RectDomain(-1.0, 1.0, 2 * h),
    )
    for domain in accepted:
        seen: list = []
        assert check_cauchy_riemann(_recorded(domain, seen), h, samples=3).passed
        assert len(seen) == 15 and all(domain.contains(a, b) for a, b in seen)
    refused = (
        RectDomain(0.0, math.nextafter(4 * h, 0.0), 1.0),
        RectDomain(math.nextafter(-2 * h, 0.0), 2 * h, 1.0),
        RectDomain(-2 * h, math.nextafter(2 * h, 0.0), 1.0),
        RectDomain(-1.0, 1.0, math.nextafter(2 * h, 0.0)),
        RectDomain(0.0, 1e-6, 1.0),
    )
    for domain in refused:
        seen = []
        with pytest.raises(ValueError, match=r"step h = .* 4h wide .* RectDomain\("):
            check_cauchy_riemann(_recorded(domain, seen), h, samples=3)
        assert seen == []


def test_checks_keep_a_nan_residual():
    # nan for alpha > 0 only, so finite residuals come before the first nan.
    def half_nan(a, b):
        even = Quat(math.nan if a > 0 else a)
        return even, Quat(b), even, Quat(b)

    nan_stem = StemFunction(half_nan)
    parity = check_parity(nan_stem)
    assert math.isnan(parity.max_violation) and not parity.passed
    cr = check_cauchy_riemann(nan_stem, 1e-5)
    assert math.isnan(cr.max_residual) and not cr.passed


def test_cauchy_riemann_for_polynomial_stems():
    rng = random.Random(3)
    for _ in range(10):
        st = stem_from_poly(rand_poly(rng, 4))
        assert check_cauchy_riemann(st, 1e-5, samples=40).passed


def test_spherical_value_examples():
    x = cone_point(0.8, 1.1, Q23, unit_mix(1, 1, 0))
    assert spherical_value(IDENT, x).isclose(scalar(0.8), 1e-12)
    c = constant_stem(2 * E23 - E0)
    assert spherical_value(c, x).isclose(2 * E23 - E0)
    assert spherical_value(SQ, ConePoint.from_element(E1)).isclose(-E0, 1e-12)


def test_spherical_derivative_examples():
    x = cone_point(0.8, 1.1, Q23, unit_mix(1, 1, 0))
    assert spherical_derivative(IDENT, x).isclose(E0, 1e-12)
    assert spherical_derivative(constant_stem(E23), x).is_zero(1e-14)
    assert spherical_derivative(SQ, x).isclose(scalar(1.6), 1e-12)
    with pytest.raises(RealPoint):
        spherical_derivative(IDENT, cone_point(1.0, 0.0, None, None))


def test_value_derivative_decomposition():
    rng = random.Random(4)
    for _ in range(100):
        st = stem_from_poly(rand_poly(rng, rng.randint(0, 4)))
        x = rand_cone_point(rng)
        imaginary_part = join(x.i1 * x.beta, x.i2 * x.beta)
        lhs = induce(st, x)
        rhs = spherical_value(st, x) + imaginary_part * spherical_derivative(st, x)
        assert (lhs - rhs).magnitude() < 1e-11 * (1 + lhs.magnitude())


def test_induce_well_defined_under_flip():
    rng = random.Random(5)
    for _ in range(50):
        st = stem_from_poly(rand_poly(rng, 3))
        alpha = rng.uniform(-1, 1)
        beta = rng.uniform(0.2, 1.5)
        u1 = unit_mix(rng.uniform(-1, 1), rng.uniform(-1, 1), 1)
        u2 = unit_mix(1, rng.uniform(-1, 1), rng.uniform(-1, 1))
        a = induce(st, cone_point(alpha, beta, u1, u2))
        b = induce(st, cone_point(alpha, -beta, -u1, -u2))
        assert a.isclose(b, 1e-12)


def test_polynomial_stem_matches_eval():
    rng = random.Random(6)
    for _ in range(100):
        P = rand_poly(rng, rng.randint(0, 5))
        st = stem_from_poly(P)
        x = rand_cone_point(rng)
        assert (induce(st, x) - P.eval(x)).magnitude() < 1e-10 * (
            1 + P.eval(x).magnitude()
        )


def test_monomial_stem_and_errors():
    x = cone_point(0.5, 0.9, Q23, Q13)
    cube = stem_from_poly(BiSlicePoly.monomial(3))
    from qcone3 import power

    assert induce(cube, x).isclose(power(x.element, 3), 1e-11)
    with pytest.raises(ValueError):
        stem_from_poly(BiSlicePoly.monomial(-1))
