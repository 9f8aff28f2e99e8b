"""Element/polynomial/matrix grammars and their round trips."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcone3 import (
    E0,
    BiSlicePoly,
    E1,
    E2,
    E3,
    E12,
    E13,
    E23,
    E123,
    CliffordElement,
    Quat,
    format_element,
    format_quat_pair,
    parse_element,
    parse_factored,
    parse_matrix,
    parse_poly,
    parse_sphere,
)
from qcone3.errors import ParseError, UnfactoredInput
from qcone3.grammar import _split_top_level
from helpers import (
    format_element_per_term,
    rand_element,
    scanner_element,
    scanner_factor,
    split_top_level,
)


def test_parse_basic_terms():
    assert parse_element("2e23 - e1 + 3").isclose(3 * E0 - E1 + 2 * E23)
    assert parse_element("-e123 + 0.5*e12").isclose(-E123 + 0.5 * E12)
    assert parse_element("1").isclose(E0)
    assert parse_element("e0 - e0").is_zero(0.0)
    assert parse_element(".5e1").isclose(0.5 * E1)
    assert parse_element("2 * 1").isclose(2 * E0)
    assert parse_element("  e1+e2  -  e3 ").isclose(E1 + E2 - E3)


def test_parse_is_whitespace_insensitive():
    a = parse_element("2e23-e1+3")
    b = parse_element(" 2 e23 - e1 + 3 ")
    assert a == b


def test_positional_form():
    assert parse_element("1,0,0,0,0,0,0,0").isclose(E0)
    x = parse_element("1,2,3,4,5,6,7,8")
    assert x.coeffs == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    with pytest.raises(ParseError):
        parse_element("1,2,3")
    with pytest.raises(ParseError):
        parse_element("1,2,3,4,x,6,7,8")


def test_non_finite_numbers_rejected():
    for text in ("nan,0,0,0,0,0,0,0", "0,inf,0,0,0,0,0,0", "0,0,0,0,0,0,0,-inf"):
        with pytest.raises(ParseError, match="finite"):
            parse_element(text)
    with pytest.raises(ParseError, match="out of range") as info:
        parse_element("e1 + " + "9" * 400 + "e2")
    assert info.value.pos == 5


def test_parse_errors_cite_position():
    with pytest.raises(ParseError) as info:
        parse_element("2e23 + z")
    assert info.value.pos == 7
    assert "^" in info.value.annotated()
    with pytest.raises(ParseError):
        parse_element("")
    with pytest.raises(ParseError):
        parse_element("e1 e2")
    with pytest.raises(ParseError):
        parse_element("3*")


def test_format_examples():
    assert format_element(E0 * 0) == "0"
    assert format_element(-E23 + E0) == "1 - e23"
    assert format_element(2.5 * E12) == "2.5e12"
    assert format_element(-E1) == "-e1"


def test_print_parse_round_trip():
    rng = random.Random(0)
    for _ in range(300):
        x = rand_element(rng, 100.0)
        assert parse_element(format_element(x)) == x
    # exponent-scale coefficients still round trip through the fallback
    tiny = CliffordElement([1e-7, 0, 2.5e12, 0, 0, -3e-9, 0, 0])
    assert parse_element(format_element(tiny)) == tiny


def test_pretty_format_has_no_exponent_notation():
    assert format_element(1e-20 * E1, 12) == "0.00000000000000000001e1"
    assert format_element(1.5e25 * E0 - 3e-7 * E123, 12) == (
        "15000000000000000000000000 - 0.0000003e123"
    )
    # a magnitude that rounds to 1 prints as the bare basis name
    assert format_element(0.9999999999999 * E23 - 1.0000000000001 * E2, 12) == "-e2 + e23"


_format_values = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e22, -1e22, 1e-20, -1e-20)),
    st.integers(min_value=-(10**17), max_value=10**17).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(_format_values, min_size=8, max_size=8), st.sampled_from((None, 12, 3, 1)))
@example([0.0] * 8, None)
@example([-0.0, 1.0, -1.0, 0.0, 5e-324, 1e22, -1e-20, 2.0], 12)
@settings(max_examples=500)
def test_format_matches_per_term_formatter(coeffs, sig):
    x = CliffordElement(coeffs)
    assert format_element(x, sig) == format_element_per_term(x, sig)


def _magnitude_coeffs():
    mantissa = st.floats(min_value=1.0, max_value=10.0, exclude_max=True)
    value = st.builds(
        lambda m, k, sign: sign * m * 10.0**k,
        mantissa,
        st.integers(min_value=-30, max_value=29),
        st.sampled_from((1.0, -1.0)),
    )
    return st.lists(st.one_of(value, st.just(0.0)), min_size=8, max_size=8)


@given(_magnitude_coeffs())
@settings(max_examples=300)
def test_pretty_output_reparses(coeffs):
    x = CliffordElement(coeffs)
    back = parse_element(format_element(x, 12))
    for got, want in zip(back.coeffs, x.coeffs):
        assert abs(got - want) <= 1e-11 * abs(want)


def test_quat_forms():
    assert parse_element("2e23 - 1").isclose(Quat(-1, 2, 0, 0).to_clifford())
    assert format_quat_pair(-Quat(0, 1, 0, 0), Quat(0, 1, 0, 0)) == "(-e23 | e23)"


def test_parse_poly_coeff_list():
    poly = parse_poly("coeffs: [1, -e1, e12+e23]")
    assert poly.coeffs[0].isclose(E0)
    assert poly.coeffs[1].isclose(-E1)
    assert poly.coeffs[2].isclose(E12 + E23)
    assert poly.degree() == 2


def test_parse_poly_factored():
    poly = parse_poly("(x - e12)*(x - e23)")
    assert poly.coeffs[0].isclose(-E13)
    assert poly.coeffs[1].isclose(-(E12 + E23))
    assert poly.coeffs[2].isclose(E0)


def test_parse_factored_forms():
    lead, constants = parse_factored("(x - e1)*(x + e1)")
    assert lead == 1.0
    assert constants[0].isclose(E1) and constants[1].isclose(-E1)
    lead, constants = parse_factored("1/4*(x - e12 - e23 + e3 + e1)*(x - e12 - e23 + e3 + e1)")
    assert lead == 0.25 and len(constants) == 2
    assert constants[0].isclose(E12 + E23 - E3 - E1)
    lead, constants = parse_factored("0.5*(x)")
    assert lead == 0.5 and constants[0].is_zero(0.0)


def test_parse_factored_rejects_nonlinear():
    with pytest.raises(UnfactoredInput):
        parse_factored("(x^2 - 1)")
    with pytest.raises(UnfactoredInput):
        parse_factored("(x*x - 1)")
    with pytest.raises(UnfactoredInput):
        parse_factored("(e1 - x)")
    with pytest.raises(ParseError):
        parse_factored("(x - e1")
    with pytest.raises(ParseError):
        parse_factored("(x - e1)(x - e2)")


def test_factor_parentheses_nest():
    # The ')' closing a factor is the one at depth zero.
    cases = [
        ("(x - (e1))*(x)", ParseError, " - (e1)", 3),
        ("(x - e1))", ParseError, "(x - e1))", 8),
        (" (x - (e1)", ParseError, " (x - (e1)", 1),
        ("(x - e1)*((x))", UnfactoredInput, None, None),
    ]
    for text, error, err_text, pos in cases:
        with pytest.raises(error) as info:
            parse_factored(text)
        if error is ParseError:
            assert (info.value.text, info.value.pos) == (err_text, pos)


@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("2/*(x)", "expected a denominator", 2),
        ("2 / 3 (x)", "expected '*' after leading scale", 6),
        ("0(x - e1)", "expected '*' after leading scale", 1),
        ("9" * 400 + "*(x)", "number out of range", 0),
        ("1/" + "9" * 400 + "*(x)", "number out of range", 2),
    ],
)
def test_leading_scale_syntax_errors(text, message, pos):
    with pytest.raises(ParseError) as info:
        parse_factored(text)
    assert (info.value.message, info.value.pos) == (message, pos)


@pytest.mark.parametrize(
    "scale",
    [
        "1/0",
        "0/0",
        "0",
        " 0.0",
        "1/0." + "0" * 320 + "1",
        "0." + "0" * 400 + "1",
        "0." + "0" * 300 + "1/1" + "0" * 100,
    ],
    ids=["1/0", "0/0", "0", "0.0", "1/1e-321", "1e-401", "1e-301/1e100"],
)
def test_leading_scale_must_be_finite_and_nonzero(scale):
    # 1/1e-321 overflows to inf; 1e-401 and 1e-301/1e100 underflow to 0.
    with pytest.raises(ParseError, match="^leading scale must be finite and nonzero$") as info:
        parse_factored(scale + "*(x - e1)*(x - e2)")
    assert info.value.pos == len(scale) - len(scale.lstrip())


def test_subnormal_leading_scale_is_accepted():
    lead, constants = parse_factored("0." + "0" * 320 + "1*(x - e1)")
    assert lead == 1e-321 and constants[0].isclose(E1)


# -- differential tests against the character-by-character scanner ---------------

_TOKENS = (
    "e123", "e12", "e13", "e23", "e0", "e1", "e2", "e3", "e",
    "0", "1", "2", "9", "9" * 310, ".", "*", "+", "-", " ", "\t", "z",
)  # fmt: skip
_token_text = st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join)


def _outcome(parse, text):
    """The repr of the parsed coefficients (it tells -0.0 from 0.0), or the error."""
    try:
        return repr(parse(text))
    except ParseError as err:
        return ("ParseError", err.message, err.text, err.pos)
    except UnfactoredInput as err:
        return ("UnfactoredInput", str(err))


@given(_token_text)
@example("2 1")  # the 1 lacks its sign: only "*" lets a number take the basis 1
@example("2 * 1 - 3*e123 + .5 e12")
@example("e1*e2")
@example("+ *e1")
@settings(max_examples=1000)
def test_element_matches_scanner(text):
    assert _outcome(lambda t: parse_element(t).coeffs, text) == _outcome(
        lambda t: scanner_element(t).coeffs, text
    )


@given(_token_text)
@settings(max_examples=500)
def test_factor_body_matches_scanner(body):
    assert _outcome(lambda t: [c.coeffs for c in parse_factored(t)[1]], f"(x{body})") == (
        _outcome(lambda t: [scanner_factor(t).coeffs], f"x{body}")
    )


def _scanner_poly(text: str) -> BiSlicePoly:
    """``parse_poly`` through the scanner, for the two forms built below."""
    if text.startswith("coeffs: ["):
        items = split_top_level(text[len("coeffs: [") : -1])
        return BiSlicePoly([scanner_element(item) for item in items])
    return BiSlicePoly.from_factors([scanner_factor(f) for f in text[1:-1].split(")*(")])


@given(st.lists(_token_text, min_size=1, max_size=4), st.booleans())
@settings(max_examples=500)
def test_poly_matches_scanner(items, factored):
    if factored:
        items = [item.replace("*", "") for item in items]
        text = "*".join(f"(x{item})" for item in items)
    else:
        text = "coeffs: [" + ", ".join(items) + "]"
    assert _outcome(lambda t: [c.coeffs for c in parse_poly(t).coeffs], text) == _outcome(
        lambda t: [c.coeffs for c in _scanner_poly(t).coeffs], text
    )


_split_tokens = st.lists(
    st.sampled_from(("e1", "2e23", ",", ", ", " ", "(", ")", "[", "]", "[[", "]]")), max_size=16
).map("".join)
_cell = st.lists(st.sampled_from(("e1", " - 2e23", ",", "", "(", ")", "[", "]")), max_size=4).map(
    "".join
)
# [[a, b], [c, d]], with brackets and commas inside the cells too
_matrix_text = st.lists(_cell, min_size=4, max_size=4).map(
    lambda c: f"[[{c[0]}, {c[1]}], [{c[2]},{c[3]}]]"
)


@given(st.one_of(_split_tokens, _matrix_text, _matrix_text.map(lambda t: t[1:-1])))
@example("[[e1, (e2, e3)], [e12]], [e3]")  # nested
@example("[e1, e2, e3")  # unbalanced: the opener holds the commas after it
@example("e1], e2, [e3")  # an unmatched closer makes the depth negative
@example(",, [,],")  # empty cells
@example("[1 + e1, -2.5e23 + 0.25e123], [e12 - 3, 4e3]")  # a parse_matrix row text
@settings(max_examples=500)
def test_split_matches_depth_walk(text):
    # An unmatched closer makes the depth negative, so a ',' after it stays.
    assert _split_top_level(text) == split_top_level(text)


def test_parse_matrix():
    m = parse_matrix("[[e1, e2+e23],[-1, e2]]")
    assert m.a.isclose(E1)
    assert m.b.isclose(E2 + E23)
    assert m.c.isclose(-E0)
    assert m.d.isclose(E2)
    with pytest.raises(ParseError):
        parse_matrix("[[e1, e2]]")
    with pytest.raises(ParseError):
        parse_matrix("[[e1],[e2]]")
    with pytest.raises(ParseError):
        parse_matrix("e1, e2, e3, e0")


def test_parse_sphere():
    s = parse_sphere("0.5,2")
    assert s.center == 0.5 and s.radius == 2.0
    with pytest.raises(ParseError):
        parse_sphere("1")
    with pytest.raises(ParseError):
        parse_sphere("1,-2")
    for text in ("nan,1", "inf,1", "0,nan", "0,inf"):
        with pytest.raises(ParseError, match="finite"):
            parse_sphere(text)
