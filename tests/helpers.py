"""Shared random generators and reference computations for the test suite."""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from qcone3 import (
    E0,
    ZERO,
    BiSlicePoly,
    CliffordElement,
    ConePoint,
    Quat,
    SliceContour,
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


# -- oracle: the algebra through the 8x8 product table ---------------------------
#
# The library multiplies on the split pair; these multiply with a signed table
# generated from the generator relations alone, so comparing the two checks
# that ``split`` is an algebra isomorphism rather than restating the library's
# own formulas.

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


def table_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Clifford product through the signed 8x8 basis table."""
    acc = [0.0] * 8
    for i, xi in enumerate(x.coeffs):
        if xi == 0.0:
            continue
        for j, yj in enumerate(y.coeffs):
            if yj == 0.0:
                continue
            k, sign = _PRODUCT_TABLE[i][j]
            acc[k] += sign * xi * yj
    return CliffordElement(acc)


def clifford_star(
    f: Sequence[CliffordElement], g: Sequence[CliffordElement]
) -> list[CliffordElement]:
    """Coefficient convolution c_k = sum_{i+j=k} a_i b_j with Clifford products."""
    out = [ZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + table_mul(a, b)
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


# -- reference: contour quadrature in quaternion arithmetic ----------------------
#
# The library's node loops run in slice-plane complex arithmetic; these walk
# the same trapezoid nodes with one quaternion product per factor.


def contour_point(contour: SliceContour, theta: float) -> Quat:
    """The node x0 + r e^{I theta} of the contour."""
    return Quat(contour.center + contour.radius * math.cos(theta)) + contour.unit * (
        contour.radius * math.sin(theta)
    )


def contour_phase(contour: SliceContour, theta: float) -> Quat:
    """r e^{I theta}, the slice measure density."""
    return Quat(contour.radius * math.cos(theta)) + contour.unit * (
        contour.radius * math.sin(theta)
    )


def contour_integral(contour: SliceContour, fn: Callable[[Quat], Quat]) -> Quat:
    """Trapezoid value of the closed integral of ds f(s).

    The differential of the parametrization is I r e^{I t} dt, kept on the
    left of the integrand.
    """
    step = 2.0 * math.pi / contour.nodes
    acc = Quat()
    for theta in contour.thetas():
        acc = acc + contour.unit * contour_phase(contour, theta) * fn(
            contour_point(contour, theta)
        )
    return acc * step
