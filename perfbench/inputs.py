"""Seeded raw inputs and their text in the qcone3 grammars.

Everything here is plain Python floats and strings; the library only ever
sees what these helpers produce.  Elements are lists of eight coefficients
in the order (c0, c1, c2, c3, c12, c13, c23, c123); quaternions are tuples
(w, a23, a13, a12).
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

BASIS = ("", "e1", "e2", "e3", "e12", "e13", "e23", "e123")

#: Unit imaginary quaternions whose coordinates are exact in binary.
AXIS_UNITS = (
    (0.0, 1.0, 0.0, 0.0),
    (0.0, -1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, -1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
    (0.0, 0.0, 0.0, -1.0),
)


def number(v: float) -> str:
    """Unsigned decimal without an exponent, as the term grammar wants."""
    text = repr(abs(v))
    if "e" in text:
        text = format(Decimal(abs(v)), "f")
    return text[:-2] if text.endswith(".0") else text


def terms(coeffs, leading_sign: bool = False) -> str:
    """Term-grammar text of an element, e.g. ``2e23 - e1 + 0.5``."""
    out = []
    for c, name in zip(coeffs, BASIS):
        if c == 0.0:
            continue
        mag = abs(c)
        body = number(mag) if not name else (name if mag == 1.0 else number(mag) + name)
        sign = "-" if c < 0 else "+"
        if out or leading_sign:
            out.append(f"{sign} {body}")
        else:
            out.append(body if c > 0 else "-" + body)
    if not out:
        return "+ 0" if leading_sign else "0"
    return " ".join(out)


def positional(coeffs) -> str:
    return ",".join(repr(float(c)) for c in coeffs)


def coeff_list(poly) -> str:
    return "coeffs: [" + ", ".join(terms(c) for c in poly) + "]"


def factored(constants, lead: float | None = None) -> str:
    """``[lead*](x - c1)*(x - c2)...`` for the given factor constants."""
    body = "*".join("(x " + terms([-c for c in k], leading_sign=True) + ")" for k in constants)
    return body if lead is None else f"{number(lead)}*{body}"


def matrix(entries) -> str:
    a, b, c, d = (terms(e) for e in entries)
    return f"[[{a}, {b}], [{c}, {d}]]"


# -- random values -------------------------------------------------------------


def dyadic(rng: random.Random, limit: int = 16, den: float = 8.0) -> float:
    """A multiple of 1/den in [-limit/den, limit/den]: exact in binary and decimal."""
    return rng.randint(-limit, limit) / den


def dyadic_element(rng: random.Random, limit: int = 16) -> list[float]:
    while True:
        c = [dyadic(rng, limit) for _ in range(8)]
        if any(c):
            return c


def uniform_element(rng: random.Random, scale: float = 1.0) -> list[float]:
    return [rng.uniform(-scale, scale) for _ in range(8)]


def unit_imaginary(rng: random.Random) -> tuple[float, float, float, float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        m = math.sqrt(sum(x * x for x in v))
        if m > 1e-3:
            return (0.0, v[0] / m, v[1] / m, v[2] / m)


def join(p, q) -> list[float]:
    """Coefficients of w+ p + w- q, from the idempotent decomposition."""
    return [
        0.5 * (p[0] + q[0]),
        0.5 * (q[1] - p[1]),
        0.5 * (p[2] - q[2]),
        0.5 * (q[3] - p[3]),
        0.5 * (p[3] + q[3]),
        0.5 * (p[2] + q[2]),
        0.5 * (p[1] + q[1]),
        0.5 * (p[0] - q[0]),
    ]


def cone_element(alpha: float, beta: float, i1, i2) -> list[float]:
    """The cone point whose split is (alpha + i1 beta, alpha + i2 beta)."""
    p = (alpha, beta * i1[1], beta * i1[2], beta * i1[3])
    q = (alpha, beta * i2[1], beta * i2[2], beta * i2[3])
    return join(p, q)


def magnitude(coeffs) -> float:
    return math.sqrt(sum(c * c for c in coeffs))


def poly_bound(poly, radius: float) -> float:
    """Upper bound of |f| on the ball of the given radius, from coefficients.

    Each split component of a coefficient has modulus at most sqrt(2) times
    the coefficient's Euclidean length; 2 covers that and the join.
    """
    return 2.0 * sum(magnitude(c) * radius**k for k, c in enumerate(poly))


def max_abs_diff(xs, ys) -> float:
    return max(abs(a - b) for a, b in zip(xs, ys))
