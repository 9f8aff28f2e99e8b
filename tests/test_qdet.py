"""Determinants of 2x2 matrices over the cone."""

import math
import random
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcone3 import (
    E0,
    E1,
    E2,
    E3,
    E23,
    E123,
    ZERO,
    Matrix2,
    Quat,
    det,
    det_both_sides,
    is_right_invertible,
    join,
    matmul,
    split,
    split_matrix,
)
from qcone3.clifford3 import EPS, Q13, Q23
from qcone3.qdet import quat_matmul
from helpers import det_radicand, rand_cone_element, table_mul

SQRT3_MATRIX = Matrix2(E1, E2 + E23, -E0, E2)


def rand_cone_matrix(rng):
    return Matrix2(*(rand_cone_element(rng) for _ in range(4)))


def test_sqrt3_example():
    d1, d2 = det_both_sides(SQRT3_MATRIX)
    assert abs(d1 - math.sqrt(3)) < 1e-12
    assert abs(d2 - math.sqrt(3)) < 1e-12
    assert abs(det(SQRT3_MATRIX) - math.sqrt(3)) < 1e-12


def test_sqrt3_split_sides():
    tilde, tilde2 = split_matrix(SQRT3_MATRIX)
    assert tilde[0][0].isclose(-Q23)
    assert tilde[0][1].isclose(Q13 + Q23)
    assert tilde[1][0].isclose(Quat(-1.0))
    assert tilde[1][1].isclose(Q13)
    assert tilde2[0][0].isclose(Q23)
    # second component of e2 + e23; its sign is pinned by x = w+ p + w- q
    assert tilde2[0][1].isclose(Q23 - Q13)
    assert tilde2[1][0].isclose(Quat(-1.0))
    assert tilde2[1][1].isclose(-Q13)


def test_simple_determinants():
    assert det(Matrix2.identity()) == 1.0
    assert abs(det(Matrix2(E1, ZERO, ZERO, E2)) - 1.0) < 1e-14
    real = Matrix2(2 * E0, 3 * E0, E0, 4 * E0)
    assert abs(det(real) - 5.0) < 1e-12  # |2*4 - 3*1|


def test_real_matrix_splits_trivially():
    real = Matrix2(2 * E0, 3 * E0, E0, 4 * E0)
    tilde, tilde2 = split_matrix(real)
    for row, row2, entries in zip(tilde, tilde2, ((2.0, 3.0), (1.0, 4.0))):
        for a, b, v in zip(row, row2, entries):
            assert a.isclose(Quat(v)) and b.isclose(Quat(v))
    omega_plus = (E0 + E123) / 2
    scaled = Matrix2(omega_plus * 2, ZERO, ZERO, omega_plus)
    _, t2 = split_matrix(scaled)
    assert all(e.is_zero() for row in t2 for e in row)


def test_invertibility_examples():
    assert is_right_invertible(Matrix2.identity())
    assert is_right_invertible(SQRT3_MATRIX)
    assert not is_right_invertible(Matrix2(E1, ZERO, E2, ZERO))
    assert not is_right_invertible(Matrix2(ZERO, ZERO, ZERO, ZERO))
    anti = Matrix2(ZERO, E1, E2, ZERO)
    assert is_right_invertible(anti)
    assert abs(det(anti) - 1.0) < 1e-14


def test_invertibility_needs_both_sides():
    # paravector entries whose second side is singular: the first-side
    # determinant is 2 yet no right inverse exists
    mixed = Matrix2(E1, E2, E3, E0)
    d1, d2 = det_both_sides(mixed)
    assert abs(d1 - 2.0) < 1e-14
    assert abs(d2) < 1e-14
    assert not is_right_invertible(mixed)


def test_two_display_agreement_is_not_generic():
    # the sqrt(3) matrix agrees on both sides; random cone matrices need not
    rng = random.Random(0)
    agreements = 0
    for _ in range(50):
        m = rand_cone_matrix(rng)
        d1, d2 = det_both_sides(m)
        if abs(d1 - d2) <= 1e-10 * (1 + d1):
            agreements += 1
    assert agreements < 50


def test_matmul():
    rng = random.Random(1)
    a = rand_cone_matrix(rng)
    assert all(
        x.isclose(y)
        for x, y in zip(matmul(a, Matrix2.identity()).entries(), a.entries())
    )
    b = rand_cone_matrix(rng)
    product = matmul(a, b)
    ta, ta2 = split_matrix(a)
    tb, tb2 = split_matrix(b)
    tp, tp2 = split_matrix(product)
    assert (tp, tp2) == (quat_matmul(ta, tb), quat_matmul(ta2, tb2))
    # the entries against entrywise products through the 8x8 table
    rows_a = ((a.a, a.b), (a.c, a.d))
    cols_b = ((b.a, b.c), (b.b, b.d))
    want = [
        table_mul(x1, y1) + table_mul(x2, y2)
        for (x1, x2) in rows_a
        for (y1, y2) in cols_b
    ]
    for got, w in zip(product.entries(), want):
        assert got.isclose(w, 1e-12 * (1 + w.magnitude()))


def test_from_quat_sides_keeps_the_sides():
    rng = random.Random(3)
    for _ in range(50):
        t, t2 = split_matrix(rand_cone_matrix(rng))
        m = Matrix2.from_quat_sides(t, t2)
        assert split_matrix(m) == (t, t2)
        for entry, (row, col) in zip(m.entries(), ((0, 0), (0, 1), (1, 0), (1, 1))):
            assert entry == join(t[row][col], t2[row][col])


def test_binet():
    rng = random.Random(2)
    for _ in range(300):
        a = rand_cone_matrix(rng)
        b = rand_cone_matrix(rng)
        d1, d2 = det_both_sides(a)
        e1, e2 = det_both_sides(b)
        p1, p2 = det_both_sides(matmul(a, b))
        assert abs(p1 - d1 * e1) <= 1e-9 * max(1.0, d1 * e1)
        assert abs(p2 - d2 * e2) <= 1e-9 * max(1.0, d2 * e2)
    squared = matmul(SQRT3_MATRIX, SQRT3_MATRIX)
    assert abs(det(squared) - 3.0) < 1e-12


def test_quasideterminant_norms_match():
    rng = random.Random(3)
    for _ in range(200):
        m = rand_cone_matrix(rng)
        for side, value in zip(split_matrix(m), det_both_sides(m)):
            (a, b), (c, d) = side
            if min(x.modulus() for x in (a, b, c, d)) < 1e-3:
                continue
            expected = value * value
            exprs = (
                a * (d - c * a.inverse() * b),
                b * (c - d * b.inverse() * a),
                c * (b - a * c.inverse() * d),
                d * (a - b * d.inverse() * c),
            )
            for e in exprs:
                assert abs(e.modulus_sq() - expected) <= 1e-9 * max(1.0, expected)


def test_invertibility_matches_determinants():
    rng = random.Random(4)
    for _ in range(300):
        m = rand_cone_matrix(rng)
        d1, d2 = det_both_sides(m)
        assert is_right_invertible(m) == (d1 > 1e-10 and d2 > 1e-10)


def test_column_scaling():
    rng = random.Random(5)
    for _ in range(100):
        m = rand_cone_matrix(rng)
        lam = rand_cone_element(rng)
        lp, lq = split(lam)
        assert abs(lp.modulus() - lq.modulus()) < 1e-12 * (1 + lp.modulus())
        second = Matrix2(m.a, m.b * lam, m.c, m.d * lam)
        first = Matrix2(m.a * lam, m.b, m.c * lam, m.d)
        for scaled in (second, first):
            want = lp.modulus() * det(m)
            assert abs(det(scaled) - want) <= 1e-9 * (1 + want)
            assert abs(det(scaled) - lq.modulus() * det(m)) <= 1e-9 * (1 + want)


def test_row_scaling_left_factors():
    rng = random.Random(6)
    for _ in range(100):
        m = rand_cone_matrix(rng)
        mu = rand_cone_element(rng)
        mp, _ = split(mu)
        top = Matrix2(mu * m.a, mu * m.b, m.c, m.d)
        bottom = Matrix2(m.a, m.b, mu * m.c, mu * m.d)
        for scaled in (top, bottom):
            want = mp.modulus() * det(m)
            assert abs(det(scaled) - want) <= 1e-9 * (1 + want)


def test_row_and_column_sum_invariance():
    rng = random.Random(7)
    for _ in range(100):
        m = rand_cone_matrix(rng)
        row_replaced = Matrix2(m.a + m.c, m.b + m.d, m.c, m.d)
        col_replaced = Matrix2(m.a + m.b, m.b, m.c + m.d, m.d)
        assert abs(det(row_replaced) - det(m)) <= 1e-10 * (1 + det(m))
        assert abs(det(col_replaced) - det(m)) <= 1e-10 * (1 + det(m))


def test_radicand_nonnegative_on_random_input():
    rng = random.Random(8)
    for _ in range(300):
        m = rand_cone_matrix(rng)
        assert det_radicand(m.tilde) >= -1e-12
        assert det_radicand(m.tilde2) >= -1e-12


def test_det_is_the_papers_formula():
    rng = random.Random(9)
    matrices = [rand_cone_matrix(rng) for _ in range(300)]
    for m in (SQRT3_MATRIX, *matrices):
        for side, value in zip(split_matrix(m), det_both_sides(m)):
            scale = max(abs(x) for row in side for e in row for x in e) ** 2
            assert abs(value - math.sqrt(det_radicand(side))) <= 1e-12 * scale


def _times_two_to(m: Matrix2, k: int) -> Matrix2:
    def scaled(side):
        return tuple(
            tuple(Quat(*(math.ldexp(x, k) for x in e)) for e in row) for row in side
        )

    return Matrix2.from_quat_sides(*map(scaled, split_matrix(m)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-450, 450))
@example(0, 450)
@example(0, -450)
def test_det_and_invertibility_are_homogeneous_under_powers_of_two(seed, k):
    # 4^k * det stays in range for |k| <= 450, so the equality is exact
    m = rand_cone_matrix(random.Random(seed))
    big = _times_two_to(m, k)
    assert det_both_sides(big) == tuple(math.ldexp(d, 2 * k) for d in det_both_sides(m))
    assert is_right_invertible(big) == is_right_invertible(m)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-300, max_value=0.5))
@example(EPS)
def test_invertibility_threshold_is_det_over_tol_times_scale_squared(tol):
    def diag(eps):
        return Matrix2(E0, ZERO, ZERO, eps * E0)

    assert is_right_invertible(diag(math.nextafter(tol, 1.0)), tol)
    assert not is_right_invertible(diag(tol), tol)
    assert not is_right_invertible(diag(math.nextafter(tol, 0.0)), tol)


def test_det_across_the_float_range():
    # no square is formed, so det is finite wherever it is representable
    for big, small in ((1e200, 1e-200), (1.7e308, 1e-300)):
        m = Matrix2(big * E0, ZERO, ZERO, small * E0)
        d1, d2 = det_both_sides(m)
        assert d1 == d2 and math.isclose(d1, big * small, rel_tol=1e-15)
        assert not is_right_invertible(m)  # det / m^2 = small / big
    # det over- or underflows, and the inverse diag(1/x, 1/x) is still a float
    for x in (1e200, 1e-200):
        assert is_right_invertible(Matrix2(x * E0, ZERO, ZERO, x * E0))
    # singular at the float maximum; r p^-1 q has partial sums past it
    p, q, r, t = Quat(1, 1, 0, -0.5), Quat(0, 0.5, -1, 1), Quat(1, -1, 1, 0), Quat(1, 0, -1, -1)
    assert r * p.inverse() * q == t
    top = sys.float_info.max
    side = ((p * top, q * top), (r * top, t * top))
    assert det_both_sides(Matrix2.from_quat_sides(side, side)) == (0.0, 0.0)


def test_det_of_subnormal_sides():
    # 1 / m overflows below about 5.6e-309; the side is scaled exactly first
    m = Matrix2(1e-310 * E0, ZERO, ZERO, 1e-310 * E0)
    assert det_both_sides(m) == (0.0, 0.0)  # 1e-620 underflows; not nan
    assert is_right_invertible(m)
    assert is_right_invertible(Matrix2(1e-310 * E0, ZERO, ZERO, 1e-315 * E0))
    assert not is_right_invertible(Matrix2(1e-310 * E0, ZERO, ZERO, 1e-322 * E0))
    # a side whose det / m^2 is exact at every scale keeps its decision
    rng = random.Random(41)
    for _ in range(20):
        m = rand_cone_matrix(rng)
        tiny = _times_two_to(m, -1060)
        assert all(math.isfinite(d) for d in det_both_sides(tiny))
        assert is_right_invertible(tiny) == is_right_invertible(m)
