"""Command-line front door.

Every subcommand parses its inputs with the shared grammars, dispatches to
one library operation family, and prints either a human-readable summary
(``--output pretty``, numbers at 12 significant digits) or line-delimited
JSON records with stable field names (``--output records``, full float
precision).

Exit status: 0 on success, 2 on syntax errors in any input grammar (with a
caret-annotated message on stderr), 1 on domain errors such as singular
elements or points outside a contour (the error class is named).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable

# Each handler imports the modules it computes with, so a call loads only
# those (see the import contract in README.md).
from . import grammar
from .clifford3 import EPS, Q12, Q13, Q23, Quat, split
from .errors import ConeAlgebraError, NonFiniteResult, ParseError

PRETTY_DIGITS = 12


def _fmt(value: float) -> str:
    return f"{value + 0.0:.{PRETTY_DIGITS}g}"


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    return True


class _Output:
    def __init__(self, mode: str):
        self.mode = mode
        self.lines: list[str] = []

    def pretty(self, text: str) -> None:
        if self.mode == "pretty":
            self.lines.append(text)

    def record(self, **fields) -> None:
        """Keep one record; every handler passes all of its numbers here.

        The finiteness check runs in both output modes, so an overflow in
        any result exits 1 instead of printing ``inf`` or ``nan``.
        """
        for name, value in fields.items():
            if not _all_finite(value):
                raise NonFiniteResult(
                    f"{fields.get('cmd', 'result')}: {name} is not finite"
                )
        if self.mode == "records":
            self.lines.append(json.dumps(fields))

    def emit(self) -> None:
        for line in self.lines:
            print(line)


def _sample_units() -> list[Quat]:
    units = [Q23, -Q23, Q13, Q12]
    for u, v, w in ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, -1, 1), (-1, 2, 2)):
        vec = Quat(0.0, u, v, w)
        units.append(vec / vec.modulus())
    return units


def _zero_part_fields(part) -> dict:
    if isinstance(part, Quat):
        return {"kind": "point", "value": part}
    return {"kind": "sphere", "center": part.center, "radius": part.radius}


def _zero_part_pretty(part) -> str:
    if isinstance(part, Quat):
        return grammar.format_quat(part, PRETTY_DIGITS)
    # candidate_bases already folded a negligible radius to exactly 0.
    if part.radius == 0.0:
        return f"point {_fmt(part.center)}"
    return f"sphere(center {_fmt(part.center)}, radius {_fmt(part.radius)})"


# -- subcommand handlers -----------------------------------------------------------


def _cmd_split(args, out: _Output) -> None:
    x = grammar.parse_element(args.element)
    p, q = split(x)
    out.pretty(grammar.format_quat_pair(p, q, PRETTY_DIGITS))
    out.record(cmd="split", element=x.coeffs, p=p, q=q)


def _cmd_cone_check(args, out: _Output) -> None:
    from . import qsplit

    x = grammar.parse_element(args.element)
    r1, r2 = qsplit.cone_residuals(x)
    inside = qsplit.in_cone(x, args.tol)
    out.pretty("true" if inside else "false")
    out.record(
        cmd="cone-check",
        element=x.coeffs,
        in_cone=inside,
        residuals=[r1, r2],
        tol=args.tol,
    )


def _cmd_eval(args, out: _Output) -> None:
    poly = grammar.parse_poly(args.poly)
    x = grammar.parse_element(args.at)
    value = poly.eval(x)
    out.pretty(grammar.format_element(value, PRETTY_DIGITS))
    out.record(cmd="eval", at=x.coeffs, value=value.coeffs)


def _cmd_star(args, out: _Output) -> None:
    from . import bislice

    left = grammar.parse_poly(args.left)
    right = grammar.parse_poly(args.right)
    product = bislice.star_mul(left, right)
    coeff_text = ", ".join(
        grammar.format_element(c, PRETTY_DIGITS) for c in product.coeffs
    )
    out.pretty(f"coeffs: [{coeff_text}]")
    record = {"cmd": "star", "coeffs": [c.coeffs for c in product.coeffs]}
    if args.at is not None:
        x = grammar.parse_element(args.at)
        conv = product.eval(x)
        pointwise = bislice.star_mul_pointwise(left, right, x, args.tol)
        out.pretty(f"value at point: {grammar.format_element(conv, PRETTY_DIGITS)}")
        out.pretty(
            f"pointwise form: {grammar.format_element(pointwise, PRETTY_DIGITS)}"
        )
        record["value"] = conv.coeffs
        record["pointwise"] = pointwise.coeffs
    out.record(**record)


def _cmd_roots(args, out: _Output) -> None:
    from . import bislice, zeros

    lead, constants = grammar.parse_factored(args.factored)
    if len(constants) != 2:
        raise ConeAlgebraError(
            f"root classification needs a quadratic (2 factors, got {len(constants)})"
        )
    alpha, beta = constants
    zero_set = zeros.classify_quadratic(alpha, beta, args.tol)
    poly = bislice.BiSlicePoly.from_factors(constants, lead)
    units = _sample_units()
    residual = zeros.verify_zeros(poly, zero_set, units)
    out.pretty(f"case: {zero_set.case}")
    out.pretty(
        "p-side: "
        + ", ".join(_zero_part_pretty(part) for part in zero_set.side_p.parts())
    )
    out.pretty(
        "q-side: "
        + ", ".join(_zero_part_pretty(part) for part in zero_set.side_q.parts())
    )
    for pp, qq in zero_set.pairs:
        out.pretty(f"zero pair: ({_zero_part_pretty(pp)} | {_zero_part_pretty(qq)})")
    out.pretty(f"max |f| over sampled zeros: {residual:.3e}")
    for pp, qq in zero_set.pairs:
        out.record(
            cmd="roots",
            case=zero_set.case,
            p=_zero_part_fields(pp),
            q=_zero_part_fields(qq),
        )
    out.record(cmd="roots-summary", case=zero_set.case, max_residual=residual)


def _cmd_mult(args, out: _Output) -> None:
    from . import zeros

    lead, constants = grammar.parse_factored(args.factored)
    base = grammar.parse_sphere(args.sphere)
    report = zeros.multiplicities(constants, base, args.tol)
    out.pretty(
        f"four-dimensional spherical: {report.four_dimensional} at "
        f"(sphere, sphere)"
    )
    p_loc, q_loc = report.isolated_location
    loc = (
        f"({grammar.format_quat(p_loc, PRETTY_DIGITS) if p_loc else '0'}, "
        f"{grammar.format_quat(q_loc, PRETTY_DIGITS) if q_loc else '0'})"
    )
    out.pretty(f"isolated: {report.isolated} at {loc}")
    out.pretty(f"two-dimensional first kind: {report.first_kind}")
    out.pretty(f"two-dimensional second kind: {report.second_kind}")
    out.record(
        cmd="mult",
        base={"center": base.center, "radius": base.radius},
        four_dimensional=report.four_dimensional,
        isolated=report.isolated,
        first_kind=report.first_kind,
        second_kind=report.second_kind,
        p_spherical_power=report.p_spherical_power,
        q_spherical_power=report.q_spherical_power,
        p_points=report.p_points,
        q_points=report.q_points,
    )


def _cmd_det(args, out: _Output) -> None:
    from . import qdet

    matrix = grammar.parse_matrix(args.matrix)
    tilde, tilde2 = qdet.split_matrix(matrix)
    # one Schur form per side gives det and, as in is_right_invertible, det / m**2
    (d1, r1), (d2, r2) = qdet._schur(tilde), qdet._schur(tilde2)
    out.pretty(_fmt(d1))
    for name, side in (("first side", tilde), ("second side", tilde2)):
        row_text = "; ".join(
            ", ".join(grammar.format_quat(e, PRETTY_DIGITS) for e in row)
            for row in side
        )
        out.pretty(f"{name}: [{row_text}]")
    out.pretty(f"formula on second side: {_fmt(d2)}")
    out.record(
        cmd="det",
        det=d1,
        det_second=d2,
        tilde=tilde,
        tilde2=tilde2,
        right_invertible=r1 > args.tol and r2 > args.tol,
    )


def _cmd_cauchy_verify(args, out: _Output) -> None:
    from . import cauchy
    from .qsplit import ConePoint

    nodes = cauchy.DEFAULT_NODES if args.nodes is None else args.nodes
    poly = grammar.parse_poly(args.poly)
    x = ConePoint.from_element(grammar.parse_element(args.at), args.tol)
    # The contour units drop out of the reconstruction, so both sides use fixed ones.
    contour_i = cauchy.SliceContour(args.center, args.radius, Q23, nodes)
    contour_j = cauchy.SliceContour(args.center, args.radius, Q13, nodes)
    value = cauchy.cauchy_reconstruct(poly, contour_i, contour_j, x, args.tol)
    expected = poly.eval(x)
    error = (value - expected).magnitude()
    out.pretty(f"reconstruction: {grammar.format_element(value, PRETTY_DIGITS)}")
    out.pretty(f"direct value:   {grammar.format_element(expected, PRETTY_DIGITS)}")
    out.pretty(f"error: {error:.3e} at {nodes} nodes")
    out.record(
        cmd="cauchy-verify",
        nodes=nodes,
        center=args.center,
        radius=args.radius,
        value=value.coeffs,
        expected=expected.coeffs,
        error=error,
    )


def _cmd_dbar_check(args, out: _Output) -> None:
    from . import bislice
    from .qsplit import ConePoint

    poly = grammar.parse_poly(args.poly)
    x = ConePoint.from_element(grammar.parse_element(args.at), args.tol)
    r_pair = bislice.dbar_residual(poly, x, args.fd_step)
    r_single = bislice.dbar_residual_single(poly, x, args.fd_step)
    out.pretty(f"two-slice operator residual: {r_pair:.3e}")
    out.pretty(f"single-operator residual:    {r_single:.3e}")
    out.record(
        cmd="dbar-check",
        fd_step=args.fd_step,
        residual_pair=r_pair,
        residual_single=r_single,
    )


def _cmd_kernel(args, out: _Output) -> None:
    from . import cauchy
    from .qsplit import ConePoint

    s = ConePoint.from_element(grammar.parse_element(args.s), args.tol)
    x = ConePoint.from_element(grammar.parse_element(args.x), args.tol)
    value = cauchy.cauchy_kernel(s, x, args.tol)
    out.pretty(grammar.format_element(value, PRETTY_DIGITS))
    out.record(cmd="kernel", value=value.coeffs)


# -- parser wiring -----------------------------------------------------------------


def _finite_flag(text: str, positive: bool) -> float:
    """argparse type: a finite real >= 0, or > 0 when ``positive``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise argparse.ArgumentTypeError(f"expected a finite number {bound}, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcone3",
        description="Computer algebra for the rank-3 Clifford algebra and its "
        "quadratic cone.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output",
        choices=("pretty", "records"),
        default="pretty",
        help="pretty text or line-delimited JSON records",
    )
    common.add_argument(
        "--tol",
        type=lambda t: _finite_flag(t, False),
        default=EPS,
        help="comparison tolerance (default %(default)g)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", parents=[common], help="quaternion pair of an element")
    p.add_argument("element")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser(
        "cone-check", parents=[common], help="quadratic-cone membership"
    )
    p.add_argument("element")
    p.set_defaults(handler=_cmd_cone_check)

    p = sub.add_parser("eval", parents=[common], help="evaluate a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--at", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("star", parents=[common], help="star product of polynomials")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--at", help="also evaluate both product forms at this element")
    p.set_defaults(handler=_cmd_star)

    p = sub.add_parser(
        "roots", parents=[common], help="classify zeros of a factored quadratic"
    )
    p.add_argument("--factored", required=True)
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser(
        "mult", parents=[common], help="multiplicity report of a factored polynomial"
    )
    p.add_argument("--factored", required=True)
    p.add_argument("--sphere", required=True, help="base as 'center,radius'")
    p.set_defaults(handler=_cmd_mult)

    p = sub.add_parser("det", parents=[common], help="determinant of a 2x2 matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=_cmd_det)

    p = sub.add_parser(
        "cauchy-verify",
        parents=[common],
        help="reconstruct a polynomial value from contour integrals",
    )
    p.add_argument("--poly", required=True)
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--nodes", type=int)
    p.add_argument("--at", required=True)
    p.set_defaults(handler=_cmd_cauchy_verify)

    p = sub.add_parser(
        "dbar-check", parents=[common], help="finite-difference regularity residuals"
    )
    p.add_argument("--poly", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--fd-step", type=lambda t: _finite_flag(t, True), default=1e-5)
    p.set_defaults(handler=_cmd_dbar_check)

    p = sub.add_parser(
        "kernel", parents=[common], help="two-slice Cauchy kernel value"
    )
    p.add_argument("--s", required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(handler=_cmd_kernel)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = _Output(args.output)
    handler: Callable = args.handler
    try:
        handler(args, out)
    except ParseError as exc:
        print(f"parse error: {exc.annotated()}", file=sys.stderr)
        return 2
    except ConeAlgebraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    out.emit()
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
