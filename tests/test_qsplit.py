"""Splitting isomorphism, cone membership, inverses and powers."""

import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcone3 import (
    E0,
    E1,
    E2,
    E12,
    E23,
    E123,
    EPS,
    CliffordElement,
    ConePoint,
    Quat,
    cone_point,
    in_ball,
    in_cone,
    inverse,
    is_sqrt_minus_one,
    join,
    norm_n,
    power,
    split,
    trace,
)
from qcone3.errors import NotImaginaryUnit, NotInCone, SingularElement
from qcone3.clifford3 import Q12, Q13, Q23
from qcone3.qsplit import cone_residuals
from helpers import (
    rand_cone_point,
    rand_element,
    rand_quat,
    rand_unit_imaginary,
    table_mul,
)


def test_quaternion_triple_relations():
    # the (1, i, j, k) view with i = e23, j = -e13, k = e12
    i, j, k = Q23, -Q13, Q12
    assert (i * j).isclose(k)
    assert (j * k).isclose(i)
    assert (k * i).isclose(j)
    assert (j * i).isclose(-k)
    for unit in (i, j, k):
        assert (unit * unit).isclose(Quat(-1.0))


def test_split_examples():
    assert split(E1) == ((-Q23), Q23)
    assert split(E12) == (Q12, Q12)
    assert str(split(E1)) == "(-e23 | e23)"
    p, q = split(E2 + E23)
    assert p.isclose(Q13 + Q23)
    # the second component satisfies x = w+ p + w- q, which pins its sign
    assert q.isclose(Q23 - Q13)
    assert join(p, q).isclose(E2 + E23)


def test_join_examples():
    assert join(Quat(1.0), Quat(1.0)).isclose(E0)
    assert join(-Q23, Q23).isclose(E1)
    p = Quat(0.5, -1.0, 2.0, 0.25)
    emb = join(p, p)
    assert emb.coeffs == (p.w, 0.0, 0.0, 0.0, p.a12, p.a13, p.a23, 0.0)


def test_round_trip_random():
    rng = random.Random(0)
    for _ in range(1000):
        x = rand_element(rng, 3.0)
        assert join(split(x)).isclose(x, 1e-12)
        p, q = split(x)
        p2, q2 = split(join(p, q))
        assert p2.isclose(p, 1e-12) and q2.isclose(q, 1e-12)


def test_split_is_algebra_homomorphism():
    # split carries the table product to the componentwise quaternion
    # product.  The element product is the join of that pair product, so it
    # agrees with the table as well.  The two round differently, within a
    # few ulps of |x||y| per coefficient.  Dense and sparse pairs at
    # magnitudes 1e-3 ... 1e3.
    rng = random.Random(1)
    for trial in range(2400):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        density = 1.0 if trial % 2 else 0.3
        x, y = (
            CliffordElement(
                rng.uniform(-scale, scale) if rng.random() < density else 0.0
                for _ in range(8)
            )
            for _ in range(2)
        )
        want = table_mul(x, y)
        bound = 8.0 * 2.0**-52 * x.magnitude() * y.magnitude()
        px, qx = split(x)
        py, qy = split(y)
        pz, qz = split(want)
        assert pz.isclose(px * py, bound) and qz.isclose(qx * qy, bound), (x, y)
        got = (x * y).coeffs
        assert all(abs(a - b) <= bound for a, b in zip(got, want.coeffs)), (x, y)


def test_in_cone_examples():
    assert in_cone(E1)
    assert not in_cone(E123)
    assert not in_cone(E1 + E23)
    # split (1e6 + 10e23, 1e6): the imaginary moduli 10 and 0 differ, and
    # the large real part must not widen the quadratic residual's bound
    assert not in_cone(CliffordElement([1e6, -5.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0]))


def test_cone_characterization_matches_component_data():
    rng = random.Random(2)
    for _ in range(500):
        x = rand_cone_point(rng).element
        p, q = split(x)
        assert in_cone(x, 1e-10)
        assert abs(p.re() - q.re()) < 1e-10
        assert abs(p.im_modulus() - q.im_modulus()) < 1e-10
    for _ in range(500):
        y = rand_element(rng)
        _, r2 = cone_residuals(y)
        if abs(y.coeffs[7]) < 1e-6 and abs(r2) < 1e-6:
            continue  # too close to the boundary to assert either way
        p, q = split(y)
        component_eq = (
            abs(p.re() - q.re()) < 1e-10
            and abs(p.im_modulus() - q.im_modulus()) < 1e-10
        )
        assert in_cone(y, 1e-10) == component_eq


def test_cone_residual_identity():
    # the quadratic cone equation equals a quarter of the difference of the
    # squared imaginary moduli of the split components
    rng = random.Random(3)
    for _ in range(300):
        x = rand_element(rng, 2.0)
        p, q = split(x)
        _, r2 = cone_residuals(x)  # relative to max|x_im|^2
        m = max(map(abs, x.coeffs[1:7]))
        expected = 0.25 * (p.im_modulus() ** 2 - q.im_modulus() ** 2) / (m * m)
        assert abs(r2 - expected) < 1e-12 * (1 + abs(r2))


def test_is_sqrt_minus_one():
    assert is_sqrt_minus_one(E1)
    assert is_sqrt_minus_one(E12)
    assert not is_sqrt_minus_one(E12 + E23)
    rng = random.Random(4)
    for _ in range(100):
        u = rand_unit_imaginary(rng)
        v = rand_unit_imaginary(rng)
        x = join(u, v)
        assert is_sqrt_minus_one(x)
        assert in_cone(x, 1e-10)
        assert (x * x).isclose(-E0, 1e-12)


def test_inverse_examples():
    assert inverse(2 * E0).isclose(0.5 * E0)
    assert inverse(E12).isclose(-E12)
    with pytest.raises(SingularElement):
        inverse((E0 + E123) / 2)


def test_inverse_random():
    rng = random.Random(5)
    for _ in range(200):
        x = rand_element(rng) + 3 * E0  # shifted away from the zero divisors
        assert table_mul(x, inverse(x)).isclose(E0, 1e-10)
        assert table_mul(inverse(x), x).isclose(E0, 1e-10)


def test_power_examples():
    assert power(E1, 2).isclose(-E0)
    rng = random.Random(6)
    for _ in range(20):
        assert power(rand_element(rng), 0).isclose(E0)
    x = E0 + E1
    assert power(x, 3).isclose(table_mul(table_mul(x, x), x), 1e-12)
    assert power(x, 3).isclose(-2 * E0 + 2 * E1)


def test_power_matches_repeated_mul():
    rng = random.Random(7)
    for _ in range(300):
        x = rand_element(rng)
        n = rng.randint(0, 8)
        direct = E0
        for _ in range(n):
            direct = table_mul(direct, x)
        scale = 1.0 + direct.max_abs()
        assert power(x, n).isclose(direct, 1e-12 * scale)


def test_negative_power():
    x = 2 * E0 + E1
    assert power(x, -2).isclose(inverse(x * x), 1e-12)
    with pytest.raises(SingularElement):
        power((E0 + E123) / 2, -1)


def test_trace_norm_split_formula():
    rng = random.Random(8)
    for _ in range(200):
        x = rand_element(rng)
        p, q = split(x)
        tp, tq = split(trace(x))
        assert tp.isclose(p + p.conj(), 1e-12)
        assert tq.isclose(q + q.conj(), 1e-12)
        npp, nq = split(norm_n(x))
        assert npp.isclose(p * p.conj(), 1e-12 * (1 + npp.modulus()))
        assert nq.isclose(q * q.conj(), 1e-12 * (1 + nq.modulus()))


def test_cone_point_trace_norm_real():
    rng = random.Random(9)
    for _ in range(200):
        pt = rand_cone_point(rng)
        x = pt.element
        t = trace(x)
        n = norm_n(x)
        assert abs(t.coeffs[0] - pt.trace_value) < 1e-12
        assert abs(n.coeffs[0] - pt.norm_value) < 1e-12 * (1 + pt.norm_value)
        assert max(abs(c) for c in t.coeffs[1:]) < 1e-12
        assert max(abs(c) for c in n.coeffs[1:]) < 1e-12 * (1 + pt.norm_value)


def test_cone_point_examples():
    assert cone_point(0, 1, Q23, Q23).element.isclose(E23)
    assert cone_point(0, 1, -Q23, Q23).element.isclose(E1)
    assert cone_point(3, 0, Q23, Q13).element.isclose(3 * E0)
    with pytest.raises(NotImaginaryUnit):
        cone_point(0, 1, Q23 + Q13, Q23)


def test_cone_point_without_units():
    assert cone_point(1.0, 0.0, None, None).is_real
    for i1, i2 in ((None, None), (Q23, None), (None, Q13)):
        with pytest.raises(NotImaginaryUnit):
            cone_point(1.0, 2.0, i1, i2)
    # |y| <= EPS is the real point, whatever the units
    assert cone_point(1.0, -EPS, Q23 + Q13, None).is_real


def test_cone_point_pair_is_the_operator_form_bit_for_bit():
    rng = random.Random(26)
    # negative beta flips the units, so their zero components become -0.0
    points = [
        cone_point(a, b, u, v)
        for a in (0.0, -0.0, 0.3)
        for b in (0.5, -0.5)
        for u, v in ((Q23, Q13), (-Q12, Q23))
    ]
    points += [rand_cone_point(rng) for _ in range(100)] + [cone_point(-0.0, 0.0, None, None)]
    for x in points:
        if x.is_real:
            want = (Quat(x.alpha), Quat(x.alpha))
        else:
            want = (Quat(x.alpha) + x.i1 * x.beta, Quat(x.alpha) + x.i2 * x.beta)
        assert repr(tuple(x.pair)) == repr((x.p, x.q)) == repr(want)


def test_cone_point_from_element():
    pt = ConePoint.from_element(E1)
    assert pt.alpha == 0 and abs(pt.beta - 1) < 1e-14
    assert pt.i1.isclose(-Q23) and pt.i2.isclose(Q23)
    with pytest.raises(NotInCone):
        ConePoint.from_element(E123)


_units = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.fsum(c * c for c in v) > 0.01)
    .map(lambda v: Quat(0.0, *v) / math.sqrt(math.fsum(c * c for c in v)))
)
# (i, j, sign): the cone residual r2 has the term sign * c_i * c_j
_R2_TERMS = tuple(
    t
    for i, j, sign in ((2, 5, 1.0), (1, 6, -1.0), (3, 4, -1.0))
    for t in ((i, j, sign), (j, i, sign))
)


def _accepted(x, tol=1e-10):
    """in_cone and ConePoint.from_element, which must agree."""
    try:
        ConePoint.from_element(x, tol)
    except NotInCone:
        assert not in_cone(x, tol)
        return False
    assert in_cone(x, tol)
    return True


@given(
    st.floats(-40.0, 40.0),
    st.floats(0.0, 6.0),
    st.floats(-1.0, 1.0),
    st.floats(0.25, 1.0),
    _units,
    _units,
    st.sampled_from((1.0, -1.0)),
)
@settings(max_examples=200)
def test_cone_membership_is_scale_relative(log_scale, log_ratio, a, b, i1, i2, sign):
    # the real part is up to 1e6 times the imaginary part, at 1e-40 to 1e40
    scale = 10.0**log_scale
    x = cone_point(a * scale, b * scale / 10.0**log_ratio, i1, i2).element
    assert _accepted(x)
    tol = 1e-10
    s = x.max_abs()
    c = list(x.coeffs)
    # c123 is held to tol * max|x_i|: just inside passes both tests, just past fails
    c[7] = sign * 0.99 * tol * s
    assert _accepted(CliffordElement(c))
    c[7] = sign * 1.01 * tol * s
    assert not _accepted(CliffordElement(c))
    # r2 is held to tol * max|x_im|**2: move it through its largest term.
    # from_element normalizes each unit by its own side, so it agrees with
    # in_cone on both sides of the threshold.
    s_im = max(map(abs, x.coeffs[1:7]))
    i, j, term_sign = max(_R2_TERMS, key=lambda t: abs(x.coeffs[t[1]]))
    for factor, inside in ((0.99, True), (1.01, False)):
        c = list(x.coeffs)
        c[i] += sign * factor * tol * s_im * s_im / (term_sign * c[j])
        y = CliffordElement(c)
        assert (abs(cone_residuals(y)[1]) <= tol) == inside
        assert _accepted(y) == inside


def test_cone_point_negative_beta_normalizes():
    u1, u2 = -Q23, Q13
    a = cone_point(0.5, -0.75, u1, u2)
    b = cone_point(0.5, 0.75, -u1, -u2)
    assert a.element.isclose(b.element, 1e-14)
    assert a.beta == b.beta > 0


def test_in_ball():
    assert in_ball(ConePoint.from_element(E1), 2)
    assert not in_ball(ConePoint.from_element(E1), 1)  # strict, squared norm
    assert in_ball(ConePoint.from_element(3 * E0), 10)
    # ball membership agrees with both component norms
    rng = random.Random(10)
    for _ in range(100):
        pt = rand_cone_point(rng)
        r = rng.uniform(0.1, 5.0)
        components = max(pt.p.modulus_sq(), pt.q.modulus_sq())
        assert in_ball(pt, r) == (components < r)


# -- Quat value semantics ---------------------------------------------------------


def test_quat_is_immutable():
    q = Quat(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(AttributeError):
        q.w = 5.0
    with pytest.raises(AttributeError):
        q.extra = 5.0
    assert q == Quat(1.0, 2.0, 3.0, 4.0)


def test_quat_constructor_coerces_and_repr():
    q = Quat(1, 0, 0, 2)
    assert all(type(v) is float for v in (q.w, q.a23, q.a13, q.a12))
    assert repr(q) == "Quat(w=1.0, a23=0.0, a13=0.0, a12=2.0)"
    assert Quat(a13=3) == Quat(0.0, 0.0, 3.0, 0.0)
    assert pickle.loads(pickle.dumps(q)) == q
    assert copy.deepcopy(q) == q


def test_quat_scalar_operators_are_arithmetic():
    q = Quat(1.0, 0.0, 0.0, 2.0)
    for result, want in (
        (2 * q, Quat(2.0, 0.0, 0.0, 4.0)),
        (q * 2, Quat(2.0, 0.0, 0.0, 4.0)),
        (1 + q, Quat(2.0, 0.0, 0.0, 2.0)),
        (q + 1, Quat(2.0, 0.0, 0.0, 2.0)),
        (q - 1, Quat(0.0, 0.0, 0.0, 2.0)),
        (1 - q, Quat(0.0, 0.0, 0.0, -2.0)),
    ):
        assert type(result) is Quat
        assert result == want


def test_equal_quats_hash_equal():
    a = Quat(1, 2, 3, 4)
    b = Quat(1.0, 2.0, 3.0, 4.0)
    assert a == b and hash(a) == hash(b)
    assert Q23 * Q13 == -Q12 and hash(Q23 * Q13) == hash(-Q12)
    assert len({a, b, Q12}) == 2
    assert a != Quat(1.0, 2.0, 3.0, 4.5)


_mixed = st.one_of(
    st.integers(-1000, 1000), st.floats(-1e3, 1e3, allow_nan=False)
)
_quats = st.builds(Quat, _mixed, _mixed, _mixed, _mixed)


@given(_quats, _quats, _mixed)
@settings(max_examples=200)
def test_arithmetic_results_hold_floats(x, y, s):
    results = [
        x + y,
        x - y,
        x * y,
        -x,
        x.conj(),
        x.im(),
        x + s,
        s + x,
        x - s,
        s - x,
        x * s,
        s * x,
        x.power(3),
        *split(join(x, y)),
    ]
    if s != 0:
        results.append(x / s)
    if x.modulus() > 1e-3:
        results.append(x.inverse())
    for r in results:
        assert type(r) is Quat
        assert all(type(v) is float for v in r), r
    assert all(type(v) is float for v in join(x, y).coeffs)
    assert all(type(v) is float for v in x.to_clifford().coeffs)


def test_quat_product_matches_clifford_table():
    rng = random.Random(11)
    for _ in range(300):
        p = rand_quat(rng)
        q = rand_quat(rng)
        table = table_mul(p.to_clifford(), q.to_clifford())
        scale = 1.0 + p.modulus() * q.modulus()
        assert (p * q).to_clifford().isclose(table, 1e-13 * scale)
        assert math.isclose((p * q).modulus(), p.modulus() * q.modulus(), rel_tol=1e-12)
