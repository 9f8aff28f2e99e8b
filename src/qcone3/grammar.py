"""Textual grammars for elements, polynomials, matrices, and spheres.

Element grammar: signed terms ``<real>[*]<basis>`` over the basis tokens
``1, e0, e1, e2, e3, e12, e13, e23, e123``, whitespace-insensitive, e.g.
``2e23 - e1 + 3``.  Numbers are plain decimals without an exponent part
(the letter ``e`` always starts a basis token).  An element may also be
given positionally as 8 comma-separated finite reals in the fixed
coefficient order ``(c0, c1, c2, c3, c12, c13, c23, c123)``.

Polynomials: ``coeffs: [<element>, <element>, ...]`` lowest degree first,
or a factored form ``(x - <element>)*(x - <element>)...`` with an optional
leading scale ``<number>[/<number>]*``, a finite nonzero real.  Either form
has at most ``MAX_COEFFS`` coefficients, so at most ``MAX_COEFFS - 1``
factors.

Matrices: ``[[<element>, <element>], [<element>, <element>]]`` with entries
in term form.
"""

from __future__ import annotations

import math
import re
from operator import neg

from .clifford3 import BASIS_NAMES, ZERO, CliffordElement, Quat, _element_from_floats
from .errors import InputTooLarge, ParseError, UnfactoredInput

_BASIS_INDEX = {
    "1": 0,
    "e0": 0,
    "e1": 1,
    "e2": 2,
    "e3": 3,
    "e12": 4,
    "e13": 5,
    "e23": 6,
    "e123": 7,
}
# The basis tokens, longest match first so e123 is not read as e12 followed
# by garbage.
_BASIS = "e(?:123|12|13|23|[0-3])"
_NUMBER = r"\d+\.\d*|\.\d+|\d+"
_NUMBER_RE = re.compile(_NUMBER)
# One signed term and the whitespace after it: groups sign, number, '*' and
# basis token (or 1).  Every part is optional, so it always matches; the
# loop in _parse_terms rejects the combinations the grammar does not allow.
_TERM_RE = re.compile(rf"\s*([+-]?)\s*({_NUMBER})?\s*(\*)?\s*({_BASIS}|1)?\s*")
_SPACE_RE = re.compile(r"\s*")
_BRACKET_RE = re.compile(r"[()[\]]")

# Per basis position: the term of a unit coefficient, and the suffix after
# any other number (none after the real part).
_TERMS = tuple((name, "" if name == "1" else name) for name in BASIS_NAMES)

#: Most coefficients a parsed polynomial may have.  It bounds the quadratic
#: cost of the star product and of the factor expansion.
MAX_COEFFS = 256


def _number(text: str, m: re.Match) -> float:
    value = float(m.group())
    if not math.isfinite(value):
        raise ParseError("number out of range", text, m.start())
    return value


def _parse_terms(text: str) -> list[float]:
    """The eight coefficients of the signed terms that make up all of ``text``."""
    coeffs = [0.0] * 8
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        sign, number, star, basis = m.groups()
        if not sign:
            if m.end(1) == len(text):
                if pos == 0:
                    raise ParseError("expected an element", text, len(text))
                return coeffs
            if pos:
                raise ParseError("expected '+' or '-' between terms", text, m.start(1))
        if number is None:
            if star or not basis:
                raise ParseError(
                    "expected a number or basis token", text, m.start(3) if star else m.end()
                )
            value = 1.0
        else:
            value = float(number)
            if value == math.inf:
                raise ParseError("number out of range", text, m.start(2))
            if star and not basis:
                raise ParseError("expected a basis token after '*'", text, m.end())
            if basis == "1" and not star:
                # "2 1": the term ends at the 2, and the 1 that follows lacks a sign.
                raise ParseError("expected '+' or '-' between terms", text, m.start(4))
        coeffs[_BASIS_INDEX[basis or "1"]] += -value if sign == "-" else value
        pos = m.end()


def _blanks(part: str) -> int:
    """How many blanks ``part`` starts with."""
    return len(part) - len(part.lstrip())


def _finite_reals(text: str, parts: list[str], what: str) -> list[float]:
    """The comma-separated ``parts`` of ``text`` as finite reals; an error
    puts its caret under the first non-blank character of the offending part."""
    values = []
    at = 0
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            raise ParseError("invalid real number", text, at + _blanks(part)) from None
        if not math.isfinite(value):
            raise ParseError(f"{what} must be finite", text, at + _blanks(part))
        values.append(value)
        at += len(part) + 1
    return values


def _parse_within(parse, text: str, start: int, piece: str):
    """``parse(piece)`` for the ``piece`` of ``text`` that starts at ``start``:
    a parse error inside it is reported against the whole text."""
    try:
        return parse(piece)
    except ParseError as exc:
        raise ParseError(exc.message, text, start + exc.pos) from None


def _parse_elements(text: str, start: int, items: list[str]) -> list[CliffordElement]:
    """The comma-separated ``items`` of ``text``, the first at ``start``."""
    elements = []
    for item in items:
        elements.append(_parse_within(parse_element, text, start, item))
        start += len(item) + 1
    return elements


def parse_element(text: str) -> CliffordElement:
    """Parse either the term grammar or the positional 8-real form."""
    if "," in text:
        parts = text.split(",")
        if len(parts) != 8:
            raise ParseError(
                f"positional form needs 8 coefficients, got {len(parts)}",
                text,
                0,
            )
        return CliffordElement(_finite_reals(text, parts, "coefficient"))
    return _element_from_floats(tuple(_parse_terms(text)))


def format_element(x: CliffordElement, sig: int | None = None) -> str:
    """Render in the term grammar.  Default mode reparses to the same floats;
    ``sig`` rounds each coefficient to that many significant digits."""
    pieces: list[str] = []
    for coeff, (unit, suffix) in zip(x.coeffs, _TERMS):
        if coeff == 0.0:
            continue
        value = abs(coeff)
        number = repr(value) if sig is None else f"{value:.{sig}g}"
        if "e" in number:
            # Exponent notation is not part of the term grammar; fall back to
            # fixed point: the exact expansion of the float, or of its rounding.
            from decimal import Decimal

            number = format(Decimal(value if sig is None else number), "f")
        number = number.removesuffix(".0")
        pieces.append(("- " if coeff < 0 else "+ ") + (unit if number == "1" else number + suffix))
    if not pieces:
        return "0"
    out = " ".join(pieces)
    return out[2:] if out[0] == "+" else "-" + out[2:]


def format_quat(q: Quat, sig: int | None = None) -> str:
    return format_element(q.to_clifford(), sig)


def format_quat_pair(p: Quat, q: Quat, sig: int | None = None) -> str:
    return f"({format_quat(p, sig)} | {format_quat(q, sig)})"


def _split_top_level(text: str) -> list[str]:
    """Split at the commas outside brackets.

    The depth at a comma counts the openers before it less the closers, so
    an unmatched closer makes it negative and keeps the commas after it.
    """
    if not _BRACKET_RE.search(text):
        return text.split(",")
    parts: list[str] = []
    depth = 0
    for piece in text.split(","):
        if depth:
            parts[-1] += "," + piece
        else:
            parts.append(piece)
        depth += piece.count("(") + piece.count("[") - piece.count(")") - piece.count("]")
    return parts


def _closing_paren(text: str, start: int) -> int:
    """Index of the ')' that closes the '(' at ``start``, or -1."""
    depth = 0
    while (end := text.find(")", start)) >= 0:
        depth += text.count("(", start, end) - 1
        if depth == 0:
            return end
        start = end + 1
    return -1


def parse_factored(text: str) -> tuple[float, list[CliffordElement]]:
    """Factored polynomial ``[scale*](x - <element>)*...``.

    Returns the leading real scale and the factor constants c with factors
    (x - c).  The scale, ``<number>`` or ``<number>/<number>``, must be
    finite and nonzero.  Anything nonlinear in a factor is rejected, and a
    constant after x starts with its sign.
    """
    lead = 1.0
    pos = scale_at = _SPACE_RE.match(text).end()
    m = _NUMBER_RE.match(text, pos)
    if m:
        lead = _number(text, m)
        pos = _SPACE_RE.match(text, m.end()).end()
        if text.startswith("/", pos):
            pos = _SPACE_RE.match(text, pos + 1).end()
            m = _NUMBER_RE.match(text, pos)
            if not m:
                raise ParseError("expected a denominator", text, pos)
            den = _number(text, m)
            lead = lead / den if den else math.inf
            pos = _SPACE_RE.match(text, m.end()).end()
        if not text.startswith("*", pos):
            raise ParseError("expected '*' after leading scale", text, pos)
        pos += 1
    constants: list[CliffordElement] = []
    while True:
        if len(constants) == MAX_COEFFS - 1:
            raise InputTooLarge(
                f"more than {MAX_COEFFS - 1} linear factors "
                f"(at most MAX_COEFFS = {MAX_COEFFS} coefficients)"
            )
        pos = _SPACE_RE.match(text, pos).end()
        if not text.startswith("(", pos):
            raise ParseError("expected '(' opening a linear factor", text, pos)
        end = _closing_paren(text, pos)
        if end < 0:
            raise ParseError("unbalanced parenthesis", text, pos)
        body = text[pos + 1 : end]
        stripped = body.strip()
        if not stripped.startswith("x"):
            raise UnfactoredInput(f"factor {body!r} is not of the form (x - element)")
        rest = stripped[1:]
        if "x" in rest or "^" in rest or rest.lstrip().startswith("*"):
            raise UnfactoredInput(f"factor {body!r} is not linear in x")
        after = rest.lstrip()
        rest_at = pos + 2 + len(body) - len(body.lstrip())  # past '(' and x
        if not after:
            constants.append(ZERO)
        elif after[0] in "+-":
            terms = _parse_within(_parse_terms, text, rest_at, rest)
            constants.append(_element_from_floats(tuple(map(neg, terms))))
        else:
            # "(x 2)" is not "(x + 2)": the constant needs its sign after x.
            raise ParseError("expected '+' or '-' after x", text, rest_at + len(rest) - len(after))
        pos = _SPACE_RE.match(text, end + 1).end()
        if pos == len(text):
            break
        if text[pos] != "*":
            raise ParseError("expected '*' between factors", text, pos)
        pos += 1
    if lead == 0.0 or not math.isfinite(lead):
        raise ParseError("leading scale must be finite and nonzero", text, scale_at)
    return lead, constants


def parse_poly(text: str):
    """Parse either coefficient-list or factored polynomial form."""
    from .bislice import BiSlicePoly

    stripped = text.strip()
    if stripped.startswith("coeffs"):
        after = stripped[len("coeffs") :].lstrip()
        if not after.startswith(":"):
            raise ParseError("expected ':' after 'coeffs'", text, 0)
        body = after[1:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError("expected '[...]' coefficient list", text, 0)
        items = _split_top_level(body[1:-1])
        if len(items) > MAX_COEFFS:
            raise InputTooLarge(
                f"{len(items)} coefficients, more than MAX_COEFFS = {MAX_COEFFS}"
            )
        # the list ends where text.rstrip() does; its first item is past '['
        return BiSlicePoly(_parse_elements(text, len(text.rstrip()) - len(body) + 1, items))
    lead, constants = parse_factored(text)
    return BiSlicePoly.from_factors(constants, lead)


def parse_matrix(text: str):
    """Parse ``[[a, b], [c, d]]`` with term-grammar entries."""
    from .qdet import Matrix2

    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ParseError("expected '[[a, b], [c, d]]'", text, 0)
    rows = _split_top_level(stripped[1:-1])
    if len(rows) != 2:
        raise ParseError(f"expected 2 rows, got {len(rows)}", text, 0)
    entries: list[CliffordElement] = []
    row_at = len(text) - len(text.lstrip()) + 1  # past the outer '['
    for row in rows:
        r = row.strip()
        if not (r.startswith("[") and r.endswith("]")):
            raise ParseError("each row must be '[a, b]'", text, 0)
        cells = _split_top_level(r[1:-1])
        if len(cells) != 2:
            raise ParseError(f"expected 2 entries per row, got {len(cells)}", text, 0)
        entries += _parse_elements(text, row_at + len(row) - len(row.lstrip()) + 1, cells)
        row_at += len(row) + 1
    return Matrix2(*entries)


def parse_sphere(text: str) -> SphereDescriptor:
    """Parse ``x,y`` as a center/radius pair."""
    from .qsplit import SphereDescriptor

    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("expected 'center,radius'", text, 0)
    center, radius = _finite_reals(text, parts, "center and radius")
    if radius < 0:
        raise ParseError("radius must be nonnegative", text, len(parts[0]) + 1 + _blanks(parts[1]))
    return SphereDescriptor(center, radius)
