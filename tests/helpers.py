"""Shared random generators and reference computations for the test suite."""

from __future__ import annotations

import random
from typing import Sequence

from qcone3 import (
    E0,
    ZERO,
    BiSlicePoly,
    CliffordElement,
    ConePoint,
    Quat,
    cone_point,
    scalar,
)


def rand_quat(rng: random.Random, scale: float = 1.5) -> Quat:
    return Quat(*(rng.uniform(-scale, scale) for _ in range(4)))


def rand_unit_imaginary(rng: random.Random) -> Quat:
    while True:
        v = rand_quat(rng).im()
        m = v.modulus()
        if m > 1e-3:
            return v / m


def rand_element(rng: random.Random, scale: float = 1.5) -> CliffordElement:
    return CliffordElement([rng.uniform(-scale, scale) for _ in range(8)])


def rand_cone_point(
    rng: random.Random,
    scale: float = 1.5,
    beta_min: float = 0.15,
) -> ConePoint:
    return cone_point(
        rng.uniform(-scale, scale),
        rng.uniform(beta_min, scale),
        rand_unit_imaginary(rng),
        rand_unit_imaginary(rng),
    )


def rand_cone_element(rng: random.Random, scale: float = 1.5) -> CliffordElement:
    return rand_cone_point(rng, scale).element


def rand_poly(rng: random.Random, degree: int, scale: float = 1.0) -> BiSlicePoly:
    return BiSlicePoly([rand_element(rng, scale) for _ in range(degree + 1)])


# -- oracle: polynomial algebra through the 8x8 product table --------------------
#
# The library computes on the split pair; these compute the same polynomials
# with Clifford products only, so comparing the two checks that ``split`` is
# an algebra isomorphism rather than restating the library's own formulas.


def clifford_star(
    f: Sequence[CliffordElement], g: Sequence[CliffordElement]
) -> list[CliffordElement]:
    """Coefficient convolution c_k = sum_{i+j=k} a_i b_j with Clifford products."""
    out = [ZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def clifford_conjugate(f: Sequence[CliffordElement]) -> list[CliffordElement]:
    return [a.conj() for a in f]


def clifford_from_factors(
    constants: Sequence[CliffordElement], lead: float = 1.0
) -> list[CliffordElement]:
    """Coefficients of lead*(x - c1)*(x - c2)*... by repeated convolution."""
    out = [scalar(lead)]
    for c in constants:
        out = clifford_star(out, [-c, E0])
    return out


def assert_coeffs_close(
    got: Sequence[CliffordElement], want: Sequence[CliffordElement], rel: float
) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.isclose(b, rel * (1 + b.magnitude())), (a, b)
