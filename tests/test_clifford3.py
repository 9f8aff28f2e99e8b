"""Core algebra: products against the table oracle, conjugation, trace, norm,
idempotents."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qcone3 import (
    BASIS,
    E0,
    E1,
    E2,
    E3,
    E12,
    E13,
    E23,
    E123,
    OMEGA_MINUS,
    OMEGA_PLUS,
    CliffordElement,
    conj,
    mul,
    norm_n,
    trace,
)
from helpers import rand_cone_element, table_mul

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
elements = st.builds(CliffordElement, st.tuples(*([coeff] * 8)))


def test_generator_relations():
    for i, ei in enumerate((E1, E2, E3), start=1):
        for j, ej in enumerate((E1, E2, E3), start=1):
            anti = ei * ej + ej * ei
            expected = -2 * E0 if i == j else CliffordElement([0.0] * 8)
            assert anti.isclose(expected)


def test_basis_products():
    assert (E1 * E2).isclose(E12)
    assert (E12 * E23).isclose(-E13)
    assert (E1 * E1).isclose(-E0)
    assert (E123 * E123).isclose(E0)
    assert (E1 * E2 * E3).isclose(E123)


def test_basis_products_match_table_exactly():
    for a in BASIS:
        for b in BASIS:
            assert a * b == table_mul(a, b), (a, b)


def test_idempotent_identities():
    assert (OMEGA_PLUS * OMEGA_PLUS).isclose(OMEGA_PLUS)
    assert (OMEGA_MINUS * OMEGA_MINUS).isclose(OMEGA_MINUS)
    assert (OMEGA_PLUS * OMEGA_MINUS).is_zero(0.0)
    assert (OMEGA_MINUS * OMEGA_PLUS).is_zero(0.0)
    assert (OMEGA_PLUS + OMEGA_MINUS).isclose(E0)
    assert conj(OMEGA_PLUS).isclose(OMEGA_PLUS)
    assert conj(OMEGA_MINUS).isclose(OMEGA_MINUS)


def test_conjugation_examples():
    assert conj(E1).isclose(-E1)
    assert conj(E123).isclose(E123)
    assert conj(3 * E0 + 2 * E12).isclose(3 * E0 - 2 * E12)


def test_trace_examples():
    assert trace(E0).isclose(2 * E0)
    assert trace(E1).is_zero(0.0)
    assert trace(OMEGA_PLUS).isclose(E0 + E123)


def test_norm_examples():
    assert norm_n(E1).isclose(E0)
    assert norm_n(2 * E0 + E23).isclose(5 * E0)
    # the idempotent is its own norm, which is not a real multiple of 1:
    # it sits outside the cone
    assert norm_n(OMEGA_PLUS).isclose(OMEGA_PLUS)


def test_e123_is_central():
    for b in BASIS:
        assert (E123 * b).isclose(b * E123)


@given(elements, elements, elements)
@settings(max_examples=200)
def test_associativity(x, y, z):
    left = mul(mul(x, y), z)
    right = mul(x, mul(y, z))
    scale = 1.0 + max(left.max_abs(), right.max_abs())
    assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(left.coeffs, right.coeffs))


@given(elements, elements)
@settings(max_examples=200)
def test_conj_anti_involution(x, y):
    left = conj(mul(x, y))
    right = mul(conj(y), conj(x))
    scale = 1.0 + left.max_abs()
    assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(left.coeffs, right.coeffs))


def test_norm_multiplicative_on_cone():
    rng = random.Random(42)
    for _ in range(500):
        x = rand_cone_element(rng)
        y = rand_cone_element(rng)
        lhs = norm_n(mul(x, y))
        rhs = mul(norm_n(x), norm_n(y))
        scale = 1.0 + rhs.max_abs()
        assert all(
            abs(a - b) <= 1e-12 * scale for a, b in zip(lhs.coeffs, rhs.coeffs)
        )


def test_scalar_ops_are_componentwise():
    x = CliffordElement(range(8))
    y = 2.0 * x
    assert y.coeffs == tuple(2.0 * c for c in x.coeffs)
    assert (x + x).coeffs == y.coeffs
    assert (y / 2).coeffs == x.coeffs
    assert (-x).coeffs == tuple(-c for c in x.coeffs)
