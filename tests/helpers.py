"""Shared random generators and reference computations for the test suite."""

from __future__ import annotations

import math
import random
import re
from typing import Callable, Sequence

from qcone3 import (
    BASIS_NAMES,
    E0,
    ZERO,
    BiSlicePoly,
    CliffordElement,
    ConePoint,
    Quat,
    QuatPoly,
    SliceContour,
    SphereDescriptor,
    cone_point,
    parse_element,
    scalar,
    split,
)
from qcone3.clifford3 import EPS
from qcone3.errors import NonFiniteResult, ParseError, UnfactoredInput
from qcone3.zeros import candidate_bases, left_divide_linear, sphere_chain


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


def thetas(contour: SliceContour) -> list[float]:
    """The contour's trapezoid nodes ``2 pi k / N``, k = 0 ... N - 1."""
    return [2.0 * math.pi * k / contour.nodes for k in range(contour.nodes)]


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
    for theta in thetas(contour):
        acc = acc + contour.unit * contour_phase(contour, theta) * fn(
            contour_point(contour, theta)
        )
    return acc * step


# -- oracle: the slice-plane node loop with the kernel's (g, h) weights --------


def slice_plane_component(
    poly: QuatPoly, contour: SliceContour, alpha: float, beta: float, unit_j: Quat
) -> Quat:
    """One split component of the Cauchy reconstruction at ``alpha + J beta``
    (beta >= 0, J = ``unit_j``), one node at a time, with the weights ``(g,
    h)`` built from the kernel denominator where the library divides by
    ``z - q_c`` and ``z - conj q_c``:
    ``1/d = a + i b`` with ``d = q_c^2 - 2 Re(z) q_c + |z|^2``, weights
    ``g = a m - (a alpha - b beta) phi`` and ``h = b m - (a beta + b alpha) phi``
    with ``m = r^2 + x0 phi``, over the nodes k <= N//2 of weight 1 or 2.
    Returns ``(Re sum g w + J Re sum h w) / N``."""
    x0, r, n = contour.center, contour.radius, contour.nodes
    q_c = complex(alpha, beta)
    g_acc, h_acc = [0j] * 4, [0j] * 4
    for k in range(n // 2 + 1):
        t = 2.0 * math.pi * k / n
        phi = complex(r * math.cos(t), r * math.sin(t))
        z = x0 + phi
        s_re = z.real
        d = q_c * q_c - 2.0 * s_re * q_c + (s_re * s_re + phi.imag * phi.imag)
        inv = 1.0 / d
        a, b = inv.real, inv.imag
        m = r * r + x0 * phi
        g = a * m - (a * alpha - b * beta) * phi
        h = b * m - (a * beta + b * alpha) * phi
        weight = 2.0 if 0 < k < n - k else 1.0
        for i in range(4):
            w = 0j
            for c in reversed(poly.coeffs):
                w = w * z + c[i]
            g_acc[i] += g * (weight * w)
            h_acc[i] += h * (weight * w)
    value = Quat(*(v.real for v in g_acc)) + unit_j * Quat(*(v.real for v in h_acc))
    return value / n


# -- oracle: the exact trapezoid value, in mpmath ------------------------------


def _mp_quat_product():
    """Quaternion product on 4-lists of mpf, with the basis signs read off Quat."""
    basis = [Quat(*(float(i == k) for i in range(4))) for k in range(4)]
    terms = []
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            c = a * b
            k = max(range(4), key=lambda n: abs(c[n]))
            terms.append((i, j, k, int(c[k])))

    def mul(x, y):
        out = [0, 0, 0, 0]
        for i, j, k, sign in terms:
            out[k] += sign * x[i] * y[j]
        return out

    return mul


def exact_trapezoid_component(
    poly: QuatPoly, contour: SliceContour, target: Quat
) -> tuple[list[float], float]:
    """``T_N``: the N-node trapezoid value of the Cauchy reconstruction of one
    split component, ``(1/N) sum_k S(s_k, q) r e^{I t_k} F(s_k)``, evaluated in
    40-digit quaternion arithmetic from the float inputs, with exact
    nodes ``t_k = 2 pi k / N`` and the contour unit normalised exactly.

    Returns the value rounded to floats and the largest term modulus.
    """
    import mpmath

    mul = _mp_quat_product()
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        im = [mpf(u) for u in contour.unit[1:]]
        norm = mpmath.sqrt(sum(u * u for u in im))
        unit = [mpf(0)] + [u / norm for u in im]
        q = [mpf(v) for v in target]
        coeffs = [[mpf(v) for v in c] for c in poly.coeffs]
        x0, r, n = mpf(contour.center), mpf(contour.radius), contour.nodes
        q_sq = mul(q, q)
        acc = [mpf(0)] * 4
        largest = mpf(0)
        for k in range(n):
            t = 2 * mpmath.pi * k / n
            phase = [u * r * mpmath.sin(t) for u in unit]
            phase[0] = r * mpmath.cos(t)
            s = [x0 + phase[0]] + phase[1:]
            f = [mpf(0)] * 4
            for c in reversed(coeffs):
                f = [a + b for a, b in zip(mul(s, f), c)]
            s_sq = sum(v * v for v in s)
            den = [a - 2 * s[0] * b for a, b in zip(q_sq, q)]
            den[0] += s_sq
            den_sq = sum(v * v for v in den)
            inv = [den[0] / den_sq] + [-v / den_sq for v in den[1:]]
            kernel = mul(inv, [s[0] - q[0]] + [-a - b for a, b in zip(s[1:], q[1:])])
            term = mul(mul(kernel, phase), f)
            largest = max(largest, mpmath.sqrt(sum(v * v for v in term)))
            acc = [a + b for a, b in zip(acc, term)]
        return [float(a / n) for a in acc], float(largest)


# -- oracle: the character-by-character scanner -------------------------------
#
# The library reads a signed term with one compiled regex.  This is the
# scanner it replaced, which walks the text one character at a time; the
# differential tests require both to return the same coefficients or raise
# the same (message, position).

_NUMBER_RE = re.compile(r"\d+\.\d*|\.\d+|\d+")
_BASIS_INDEX = {"e0": 0, "e1": 1, "e2": 2, "e3": 3, "e12": 4, "e13": 5, "e23": 6, "e123": 7}
_BASIS_TOKENS = ("e123", "e12", "e13", "e23", "e0", "e1", "e2", "e3")


class Scanner:
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


def scanner_terms(scanner: Scanner) -> CliffordElement:
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


def scanner_element(text: str) -> CliffordElement:
    """``parse_element`` through the scanner; the positional form is the library's."""
    if "," in text:
        return parse_element(text)
    scanner = Scanner(text)
    value = scanner_terms(scanner)
    if not scanner.at_end():
        raise scanner.error("trailing input after element")
    return value


def scanner_factor(body: str) -> CliffordElement:
    """The constant c of the linear factor ``(<body>)``, read as ``(x - c)``."""
    stripped = body.strip()
    if not stripped.startswith("x"):
        raise UnfactoredInput(f"factor {body!r} is not of the form (x - element)")
    rest = stripped[1:]
    if "x" in rest or "^" in rest or "*" in rest:
        raise UnfactoredInput(f"factor {body!r} is not linear in x")
    if not rest.strip():
        return ZERO
    inner = Scanner(rest)
    shift = scanner_terms(inner)
    if not inner.at_end():
        raise ParseError("trailing input in factor", body, 0)
    return -shift


def split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split at ``sep`` outside brackets, walking the depth character by character."""
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


# -- oracle: the polynomial kernels in operator form ------------------------------
#
# The library runs Horner, the star convolution and the stem components on
# float locals.  These are the loops they replaced, one Quat operation per step;
# the kernels keep every operation and its order, so the tests require equal
# reprs, signed zeros included.


def quat_horner(coeffs: Sequence[Quat], p: Quat) -> Quat:
    """a0 + p(a1 + p(a2 + ...)) with Quat operators."""
    acc = Quat()
    for a in reversed(coeffs):
        acc = p * acc + a
    return acc


def quat_star(f: Sequence[Quat], g: Sequence[Quat]) -> list[Quat]:
    """Convolution c_k = sum_{i+j=k} a_i b_j with Quat operators, skipping a_i = 0."""
    out = [Quat() for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        if a == Quat():
            continue
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def stem_component(coeffs: Sequence[Quat], alpha: float, beta: float, pick_imag: bool) -> Quat:
    """Real or imaginary part of sum z^n c_n, z = alpha + i beta, with Quat operators."""
    z = complex(alpha, beta)
    acc = Quat()
    zn = complex(1.0, 0.0)
    for c in coeffs:
        w = zn.imag if pick_imag else zn.real
        if w != 0.0:
            acc = acc + c * w
        zn *= z
    return acc


# -- oracle: the splitting projection reassembled ---------------------------------


def complex_on_slice(z: complex, unit: Quat) -> Quat:
    """Embed a complex number into the plane spanned by 1 and ``unit``."""
    return Quat(z.real) + unit * z.imag


def reassemble_splitting(
    a: Sequence[complex], b: Sequence[complex], i: Quat, k: Quat, z: complex
) -> Quat:
    """Evaluate A(z) + B(z)*k back in the quaternions, where (A, B) is what
    ``splitting_projection`` returns for the plane of ``i``."""
    az = sum((z**n) * c for n, c in enumerate(a))
    bz = sum((z**n) * c for n, c in enumerate(b))
    return complex_on_slice(az, i) + complex_on_slice(bz, i) * k


# -- oracle: the element formatter with one number formatter per term -------------


def format_number(value: float, sig: int | None) -> str:
    out = repr(value) if sig is None else f"{value:.{sig}g}"
    if "e" in out or "E" in out:
        from decimal import Decimal

        out = format(Decimal(value if sig is None else out), "f")
    if out.endswith(".0"):
        out = out[:-2]
    return out


def format_element_per_term(x: CliffordElement, sig: int | None = None) -> str:
    """``format_element`` as a list of terms, each number formatted on its own."""
    terms = [(c, BASIS_NAMES[i]) for i, c in enumerate(x.coeffs) if c != 0.0]
    if not terms:
        return "0"
    pieces: list[str] = []
    for k, (coeff, name) in enumerate(terms):
        number = format_number(abs(coeff), sig)
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


# -- oracle: the multiplicity engine on the expanded product -----------------------
#
# The library reads multiplicities off the factor list (``zeros.sphere_chain``).
# This is the engine it replaced: expand the side, divide out the sphere's real
# quadratic, then strip left roots on the sphere.  Its remainder tests run at
# the scale of the expanded coefficients, which grow like binomials, so it is
# an oracle for short products only.


def divide_real_quadratic(
    poly: QuatPoly, base: SphereDescriptor, tol: float = EPS
) -> QuatPoly | None:
    """Exact quotient by (t - center)^2 + radius^2, or None if not divisible.

    The divisor has real coefficients, so it is central and ordinary long
    division applies.
    """
    d = poly.degree(tol)
    if d < 2:
        return None
    s1 = -2.0 * base.center
    s0 = base.center * base.center + base.radius * base.radius
    work = list(poly.coeffs[: d + 1])
    q = [Quat()] * (d - 1)
    for k in range(d, 1, -1):
        qk = work[k]
        q[k - 2] = qk
        work[k - 1] = work[k - 1] - qk * s1
        work[k - 2] = work[k - 2] - qk * s0
    scale = 1.0 + poly.max_coeff()
    if work[0].modulus() <= tol * scale and work[1].modulus() <= tol * scale:
        return QuatPoly(q)
    return None


def root_on_sphere(
    poly: QuatPoly, base: SphereDescriptor, tol: float = EPS
) -> Quat | None:
    """A zero of poly on the given sphere, found through the restriction.

    On the sphere, powers of p = x + I y are C_k + I D_k with (C_k, D_k)
    the real and imaginary parts of (x + iy)^k, so the value is C + I D
    with C, D independent of I.  A zero exists iff -C D^{-1} is a unit
    imaginary, and then equals x + (-C D^{-1}) y.
    """
    d = poly.degree(tol)
    if d < 0:
        return None
    z = complex(base.center, base.radius)
    c_sum = Quat()
    d_sum = Quat()
    zn = complex(1.0, 0.0)
    for k in range(d + 1):
        coeff = poly.coeffs[k]
        if zn.real != 0.0:
            c_sum = c_sum + coeff * zn.real
        if zn.imag != 0.0:
            d_sum = d_sum + coeff * zn.imag
        zn *= z
    scale = 1.0 + poly.max_coeff() * math.prod([max(1.0, abs(z))] * max(d, 1))
    if d_sum.modulus() <= tol * scale:
        return None
    unit = -(c_sum * d_sum.inverse())
    if not unit.is_unit_imaginary(100 * tol):
        return None
    root = Quat(base.center) + unit * base.radius
    if poly.eval(root).modulus() > 100 * tol * scale:
        return None
    return root


def real_root_count(poly: QuatPoly, x: float, tol: float = EPS) -> int:
    """How many times the real point x divides out of poly on the left."""
    count = 0
    current = poly
    while current.degree(tol) >= 1:
        degree = current.degree(tol)
        scale = 1.0 + current.max_coeff() * math.prod([max(1.0, abs(x))] * degree)
        if not math.isfinite(scale):
            # an infinite bound would accept every root
            raise NonFiniteResult(f"real-root bound at {x:.6g} overflows for degree {degree}")
        if current.eval(Quat(x)).modulus() > 100 * tol * scale:
            break
        current, _ = left_divide_linear(current, Quat(x))
        count += 1
    return count


def sphere_zero_structure(
    poly: QuatPoly, base: SphereDescriptor, tol: float = EPS
) -> tuple[int, tuple[Quat, ...]]:
    """(spherical exponent, extracted point roots) of poly at one base.

    For a real base (radius 0) the spherical exponent is zero and plain
    real-root extraction supplies the point count.
    """
    if base.is_point(tol):
        return 0, (Quat(base.center),) * real_root_count(poly, base.center, tol)
    power = 0
    current = poly
    while True:
        reduced = divide_real_quadratic(current, base, tol)
        if reduced is None:
            break
        current = reduced
        power += 1
    points: list[Quat] = []
    while True:
        root = root_on_sphere(current, base, tol)
        if root is None:
            break
        current, _ = left_divide_linear(current, root)
        points.append(root)
    return power, tuple(points)


def expanded_multiplicities(
    factors: Sequence[CliffordElement], base: SphereDescriptor, tol: float = EPS
) -> tuple[int, int, int, int, int, int]:
    """The six counts of ``zeros.multiplicities`` from the expanded sides:
    (four_dimensional, isolated, first_kind, second_kind, n, m)."""
    pairs = [split(c) for c in factors]
    n, p_points = sphere_zero_structure(QuatPoly.from_factors([p for p, _ in pairs]), base, tol)
    m, q_points = sphere_zero_structure(QuatPoly.from_factors([q for _, q in pairs]), base, tol)
    i, j = len(p_points), len(q_points)
    return 2 * n + 2 * m, i + j, 2 * n + j, i + 2 * m, n, m


def multiplicity_total(constants: Sequence[Quat], tol: float = EPS) -> int:
    """Sum over the candidate bases of 2 * spherical exponent + chain length
    for one side; the degree law says it equals the number of factors."""
    total = 0
    for base in candidate_bases(constants, tol):
        power, chain = sphere_chain(constants, base, tol)
        total += 2 * power + len(chain)
    return total


# -- oracle: the paper's determinant formula ------------------------------------


def det_radicand(side) -> float:
    """``n(a)n(d) + n(c)n(b) - 2 Re(d conj(b) a conj(c))`` for one quaternionic
    side ``((a, b), (c, d))``: the square of its determinant, in the paper's
    form, which the library's pivoted Schur complement must reproduce."""
    (a, b), (c, d) = side
    cross = d * b.conj() * a * c.conj()
    return (
        a.modulus_sq() * d.modulus_sq()
        + c.modulus_sq() * b.modulus_sq()
        - 2.0 * cross.re()
    )
