"""Textual grammars for elements, polynomials, matrices, and spheres.

Element grammar: signed terms ``<real>[*]<basis>`` over the basis tokens
``1, e0, e1, e2, e3, e12, e13, e23, e123``, whitespace-insensitive, e.g.
``2e23 - e1 + 3``.  Numbers are plain decimals without an exponent part
(the letter ``e`` always starts a basis token).  An element may also be
given positionally as 8 comma-separated finite reals in the fixed
coefficient order ``(c0, c1, c2, c3, c12, c13, c23, c123)``.

Polynomials: ``coeffs: [<element>, <element>, ...]`` lowest degree first,
or a factored form ``(x - <element>)*(x - <element>)...`` with an optional
leading real scale.  Either form has at most ``MAX_COEFFS`` coefficients,
so at most ``MAX_COEFFS - 1`` factors.

Matrices: ``[[<element>, <element>], [<element>, <element>]]`` with entries
in term form.
"""

from __future__ import annotations

import math
import re

from .clifford3 import BASIS_NAMES, CliffordElement, Quat
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
# Longest match first so e123 is not read as e12 followed by garbage.
_BASIS_TOKENS = ("e123", "e12", "e13", "e23", "e0", "e1", "e2", "e3")

_NUMBER_RE = re.compile(r"\d+\.\d*|\.\d+|\d+")

#: Most coefficients a parsed polynomial may have.  It bounds the quadratic
#: cost of the star product and of the factor expansion.
MAX_COEFFS = 256


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, min(self.pos, len(self.text)))

    def take_sign(self, required: bool) -> float:
        self.skip_ws()
        ch = self.peek()
        if ch == "+":
            self.pos += 1
            return 1.0
        if ch == "-":
            self.pos += 1
            return -1.0
        if required:
            raise self.error("expected '+' or '-' between terms")
        return 1.0

    def take_number(self) -> float | None:
        self.skip_ws()
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            return None
        value = float(m.group())
        if not math.isfinite(value):
            raise self.error("number out of range")
        self.pos = m.end()
        return value

    def take_basis(self, allow_one: bool) -> int | None:
        self.skip_ws()
        for tok in _BASIS_TOKENS:
            if self.text.startswith(tok, self.pos):
                self.pos += len(tok)
                return _BASIS_INDEX[tok]
        if allow_one and self.peek() == "1":
            self.pos += 1
            return 0
        return None


def _parse_terms(scanner: _Scanner) -> CliffordElement:
    coeffs = [0.0] * 8
    first = True
    while True:
        scanner.skip_ws()
        if scanner.at_end():
            if first:
                raise scanner.error("expected an element")
            return CliffordElement(coeffs)
        sign = scanner.take_sign(required=not first)
        num = scanner.take_number()
        if num is not None:
            scanner.skip_ws()
            starred = scanner.peek() == "*"
            if starred:
                scanner.pos += 1
            idx = scanner.take_basis(allow_one=starred)
            if idx is None:
                if starred:
                    raise scanner.error("expected a basis token after '*'")
                idx = 0
            coeffs[idx] += sign * num
        else:
            idx = scanner.take_basis(allow_one=False)
            if idx is None:
                raise scanner.error("expected a number or basis token")
            coeffs[idx] += sign
        first = False


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
        coeffs = []
        offset = 0
        for part in parts:
            try:
                value = float(part)
            except ValueError:
                raise ParseError("invalid real number", text, offset) from None
            if not math.isfinite(value):
                raise ParseError("coefficient must be finite", text, offset)
            coeffs.append(value)
            offset += len(part) + 1
        return CliffordElement(coeffs)
    scanner = _Scanner(text)
    value = _parse_terms(scanner)
    if not scanner.at_end():
        raise scanner.error("trailing input after element")
    return value


def _format_number(value: float, sig: int | None) -> str:
    out = repr(value) if sig is None else f"{value:.{sig}g}"
    if "e" in out or "E" in out:
        # Exponent notation is not part of the term grammar; fall back to
        # fixed point: the exact expansion of the float, or of its rounding.
        from decimal import Decimal

        out = format(Decimal(value if sig is None else out), "f")
    if out.endswith(".0"):
        out = out[:-2]
    return out


def format_element(x: CliffordElement, sig: int | None = None) -> str:
    """Render in the term grammar.  Default mode reparses to the same floats;
    ``sig`` rounds each coefficient to that many significant digits."""
    terms: list[tuple[float, str]] = [
        (c, BASIS_NAMES[i]) for i, c in enumerate(x.coeffs) if c != 0.0
    ]
    if not terms:
        return "0"
    pieces: list[str] = []
    for k, (coeff, name) in enumerate(terms):
        number = _format_number(abs(coeff), sig)
        if name == "1":
            body = number
        elif number == "1":
            body = name
        else:
            body = number + name
        if k == 0:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


def format_quat(q: Quat, sig: int | None = None) -> str:
    return format_element(q.to_clifford(), sig)


def parse_quat(text: str) -> Quat:
    """Element grammar restricted to the even tokens 1, e23, e13, e12."""
    x = parse_element(text)
    if any(x.coeffs[i] != 0.0 for i in (1, 2, 3, 7)):
        raise ParseError("quaternion may only use tokens 1, e12, e13, e23", text, 0)
    return Quat(x.c0, x.c23, x.c13, x.c12)


def format_quat_pair(p: Quat, q: Quat, sig: int | None = None) -> str:
    return f"({format_quat(p, sig)} | {format_quat(q, sig)})"


def _split_top_level(text: str, sep: str = ",") -> list[str]:
    parts: list[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def parse_factored(text: str) -> tuple[float, list[CliffordElement]]:
    """Factored polynomial ``[scale*](x - <element>)*...``.

    Returns the leading real scale and the factor constants c with factors
    (x - c).  Anything nonlinear in a factor is rejected.
    """
    scanner = _Scanner(text)
    scanner.skip_ws()
    lead = 1.0
    num = scanner.take_number()
    if num is not None:
        scanner.skip_ws()
        if scanner.peek() == "/":
            scanner.pos += 1
            den = scanner.take_number()
            if den is None:
                raise scanner.error("expected a denominator")
            num /= den
        scanner.skip_ws()
        if scanner.peek() != "*":
            raise scanner.error("expected '*' after leading scale")
        scanner.pos += 1
        lead = num
    constants: list[CliffordElement] = []
    while True:
        if len(constants) == MAX_COEFFS - 1:
            raise InputTooLarge(
                f"more than {MAX_COEFFS - 1} linear factors "
                f"(at most MAX_COEFFS = {MAX_COEFFS} coefficients)"
            )
        scanner.skip_ws()
        if scanner.peek() != "(":
            raise scanner.error("expected '(' opening a linear factor")
        start = scanner.pos
        depth = 0
        end = None
        for k in range(start, len(scanner.text)):
            if scanner.text[k] == "(":
                depth += 1
            elif scanner.text[k] == ")":
                depth -= 1
                if depth == 0:
                    end = k
                    break
        if end is None:
            raise scanner.error("unbalanced parenthesis")
        body = scanner.text[start + 1 : end]
        stripped = body.strip()
        if not stripped.startswith("x"):
            raise UnfactoredInput(f"factor {body!r} is not of the form (x - element)")
        rest = stripped[1:]
        if "x" in rest or "^" in rest or "*" in rest:
            raise UnfactoredInput(f"factor {body!r} is not linear in x")
        if rest.strip():
            inner = _Scanner(rest)
            shift = _parse_terms(inner)
            if not inner.at_end():
                raise ParseError("trailing input in factor", body, 0)
            constants.append(-shift)
        else:
            constants.append(CliffordElement([0.0] * 8))
        scanner.pos = end + 1
        scanner.skip_ws()
        if scanner.at_end():
            return lead, constants
        if scanner.peek() != "*":
            raise scanner.error("expected '*' between factors")
        scanner.pos += 1


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
        return BiSlicePoly([parse_element(item) for item in items])
    lead, constants = parse_factored(stripped)
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
    for row in rows:
        r = row.strip()
        if not (r.startswith("[") and r.endswith("]")):
            raise ParseError("each row must be '[a, b]'", text, 0)
        cells = _split_top_level(r[1:-1])
        if len(cells) != 2:
            raise ParseError(f"expected 2 entries per row, got {len(cells)}", text, 0)
        entries.extend(parse_element(cell) for cell in cells)
    return Matrix2(*entries)


def parse_sphere(text: str) -> SphereDescriptor:
    """Parse ``x,y`` as a center/radius pair."""
    from .qsplit import SphereDescriptor

    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("expected 'center,radius'", text, 0)
    try:
        center = float(parts[0])
        radius = float(parts[1])
    except ValueError:
        raise ParseError("invalid real number", text, 0) from None
    if not (math.isfinite(center) and math.isfinite(radius)):
        raise ParseError("center and radius must be finite", text, 0)
    if radius < 0:
        raise ParseError("radius must be nonnegative", text, 0)
    return SphereDescriptor(center, radius)
