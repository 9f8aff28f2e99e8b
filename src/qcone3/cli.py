"""Command-line front door.

Every subcommand parses its inputs with the shared grammars, dispatches to
one library operation family, and prints either a human-readable summary
(``--output pretty``, numbers at 12 significant digits) or line-delimited
JSON records with stable field names (``--output records``, full float
precision).  Records are written by ``_json``, which gives ``json.dumps``'s
bytes for the few types records hold, so no call imports ``json``.

``argv[0]`` names a command in ``COMMANDS``; its options are the words that
start with ``--``, and ``-h``.  ``--opt value`` is ``--opt=value`` whatever
the value starts with (``--at -e1``); ``--`` ends options, every other word
is a positional (``split -e1``).  Names match exactly (no abbreviations), a
repeated option's last value wins, and ``-h``/``--help`` prints usage (exit 0).

Exit status: 0 on success, 2 on usage errors (``usage:`` and ``qcone3
<command>: error:`` on stderr) and on syntax errors in any input grammar
(a caret-annotated message), 1 on domain errors such as singular elements
or points outside a contour (the error class is named).
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace
from typing import Callable

# Each handler imports the modules it computes with, so a call loads only
# those (see the import contract in README.md).
from . import grammar
from .clifford3 import EPS, Q12, Q13, Q23, CliffordElement, Quat, split
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


def _json_string(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    raise ValueError(f"record string {text!r} needs escaping")


def _json(value) -> str:
    """``json.dumps(value)`` for str-keyed dicts, lists, tuples, bools, ints,
    finite floats and strings that need no escape; any other value raises
    ``TypeError`` (a non-finite float or a string to escape ``ValueError``),
    so the text is always valid JSON."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"record float {value!r} is not finite")
    if isinstance(value, (list, tuple)):
        return f"[{', '.join(map(_json, value))}]"
    if isinstance(value, dict):
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"record key {key!r} is not a str")
            items.append(f"{_json_string(key)}: {_json(item)}")
        return "{" + ", ".join(items) + "}"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _json_string(value)
    raise TypeError(f"a record cannot hold {type(value).__name__}")


def _readable(value) -> str:
    """``value`` as pretty text: elements and quaternions in the term grammar
    and floats at ``PRETTY_DIGITS``, a sphere of zeros as a point or a sphere,
    other lists and tuples comma-separated, anything else by ``str``."""
    if isinstance(value, Quat):
        return grammar.format_quat(value, PRETTY_DIGITS)
    if isinstance(value, CliffordElement):
        return grammar.format_element(value, PRETTY_DIGITS)
    if isinstance(value, float):
        return _fmt(value)
    if hasattr(value, "radius"):
        # A SphereDescriptor, known by its fields so that formatting loads no
        # qsplit; candidate_bases already folded a negligible radius to exactly 0.
        if value.radius == 0.0:
            return f"point {_fmt(value.center)}"
        return f"sphere(center {_fmt(value.center)}, radius {_fmt(value.radius)})"
    if isinstance(value, (list, tuple)):
        return ", ".join(map(_readable, value))
    return str(value)


class _Output:
    def __init__(self, mode: str):
        self.mode = mode
        self.lines: list[str] = []

    def pretty(self, text: str, *values) -> None:
        """Keep a line of pretty text, each ``{}`` in ``text`` replaced by the
        next of ``values`` as ``_readable`` writes it.

        Records calls skip the formatting: they never print this text.
        """
        if self.mode == "pretty":
            self.lines.append(text.format(*map(_readable, values)) if values else text)

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
            self.lines.append(_json(fields))

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


# -- subcommand handlers -----------------------------------------------------------


def _cmd_split(args, out: _Output) -> None:
    x = grammar.parse_element(args.element)
    p, q = split(x)
    out.pretty("({} | {})", p, q)
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
    out.pretty("{}", value)
    out.record(cmd="eval", at=x.coeffs, value=value.coeffs)


def _cmd_star(args, out: _Output) -> None:
    from . import bislice

    left = grammar.parse_poly(args.left)
    right = grammar.parse_poly(args.right)
    product = bislice.star_mul(left, right)
    out.pretty("coeffs: [{}]", product.coeffs)
    record = {"cmd": "star", "coeffs": [c.coeffs for c in product.coeffs]}
    if args.at is not None:
        x = grammar.parse_element(args.at)
        conv = product.eval(x)
        pointwise = bislice.star_mul_pointwise(left, right, x, args.tol)
        out.pretty("value at point: {}", conv)
        out.pretty("pointwise form: {}", pointwise)
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
    out.pretty("p-side: {}", zero_set.side_p.parts())
    out.pretty("q-side: {}", zero_set.side_q.parts())
    for pp, qq in zero_set.pairs:
        out.pretty("zero pair: ({} | {})", pp, qq)
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
    out.pretty("isolated: {} at ({}, {})", report.isolated, p_loc or "0", q_loc or "0")
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
    out.pretty("{}", d1)
    for name, side in (("first side", tilde), ("second side", tilde2)):
        out.pretty("{}: [{}; {}]", name, *side)
    out.pretty("formula on second side: {}", d2)
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
    out.pretty("reconstruction: {}", value)
    out.pretty("direct value:   {}", expected)
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
    out.pretty("{}", value)
    out.record(cmd="kernel", value=value.coeffs)


# -- command table -----------------------------------------------------------------


def _finite_flag(text: str, positive: bool) -> float:
    """A finite real >= 0, or > 0 when ``positive``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and (value > 0.0 if positive else value >= 0.0):
        return value
    raise ValueError(f"expected a finite number {'> 0' if positive else '>= 0'}, got {text!r}")


def _output_mode(text: str) -> str:
    if text not in ("pretty", "records"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'pretty', 'records')")
    return text


# Options are flag -> (converter, default); a default of ... marks a required one.
_COMMON = {"--output": (_output_mode, "pretty"), "--tol": (lambda t: _finite_flag(t, False), EPS)}
_TEXT = (str, ...)
#: command -> (handler, help line, positional names, options beside ``_COMMON``).
COMMANDS: dict[str, tuple[Callable, str, tuple[str, ...], dict]] = {
    "split": (_cmd_split, "quaternion pair of an element", ("element",), {}),
    "cone-check": (_cmd_cone_check, "quadratic-cone membership", ("element",), {}),
    "eval": (_cmd_eval, "evaluate a polynomial", (), {"--poly": _TEXT, "--at": _TEXT}),
    "star": (_cmd_star, "star product of polynomials, and both product forms at --at", (),
             {"--left": _TEXT, "--right": _TEXT, "--at": (str, None)}),
    "roots": (_cmd_roots, "classify zeros of a factored quadratic", (), {"--factored": _TEXT}),
    "mult": (_cmd_mult, "multiplicity report of a factored polynomial at a sphere", (),
             {"--factored": _TEXT, "--sphere": _TEXT}),
    "det": (_cmd_det, "determinant of a 2x2 matrix", (), {"--matrix": _TEXT}),
    "cauchy-verify": (_cmd_cauchy_verify, "reconstruct a polynomial value from contour integrals",
                      (), {"--poly": _TEXT, "--center": (float, 0.0), "--radius": (float, ...),
                           "--nodes": (int, None), "--at": _TEXT}),
    "dbar-check": (_cmd_dbar_check, "finite-difference regularity residuals", (),
                   {"--poly": _TEXT, "--at": _TEXT,
                    "--fd-step": (lambda t: _finite_flag(t, True), 1e-5)}),
    "kernel": (_cmd_kernel, "two-slice Cauchy kernel value", (), {"--s": _TEXT, "--x": _TEXT}),
}


def _usage(name: str | None) -> str:
    _, _, positional, options = COMMANDS.get(name, (None, None, ("...",), {}))
    words = [f"usage: qcone3 {name or '<command>'} [-h]"]
    for flag, (_, default) in {**_COMMON, **options}.items():
        word = f"{flag} {flag[2:].upper().replace('-', '_')}"
        words.append(word if default is ... else f"[{word}]")
    return " ".join([*words, *positional])


def _fail(name: str | None, message: str) -> int:
    """Print a usage error for command ``name`` (None: no command); its exit status."""
    prog = f"qcone3 {name}" if name else "qcone3"
    print(f"{_usage(name)}\n{prog}: error: {message}", file=sys.stderr)
    return 2


def _parse(argv: list[str]):
    """``(handler, args)``, or the exit status once help or a usage error is printed."""
    if argv[:1] in (["-h"], ["--help"]):
        print(_usage(None), "", "commands:", sep="\n")
        print("\n".join(f"  {name:<15}{entry[1]}" for name, entry in COMMANDS.items()))
        return 0
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "missing command"
        return _fail(None, f"{got} (choose from {', '.join(map(repr, COMMANDS))})")
    name, rest = argv[0], iter(argv[1:])
    handler, help_line, positional, options = COMMANDS[name]
    options, values, words = {**_COMMON, **options}, {}, []
    for word in rest:
        if word == "--":
            words += rest
        elif word in ("-h", "--help"):
            print(_usage(name), "", help_line, sep="\n")
            return 0
        elif word.startswith("--"):
            flag, eq, text = word.partition("=")
            if flag not in options:
                return _fail(name, f"unrecognized option {flag}")
            if not eq and (text := next(rest, None)) is None:
                return _fail(name, f"argument {flag}: expected one argument")
            try:
                values[flag] = options[flag][0](text)
            except ValueError as exc:
                return _fail(name, f"argument {flag}: {exc}")
        else:
            words.append(word)
    missing = [flag for flag, (_, d) in options.items() if d is ... and flag not in values]
    if missing := missing + list(positional[len(words) :]):
        return _fail(name, f"the following arguments are required: {', '.join(missing)}")
    if len(words) > len(positional):
        return _fail(name, f"unrecognized arguments: {' '.join(words[len(positional) :])}")
    args = {flag[2:].replace("-", "_"): values.get(flag, d) for flag, (_, d) in options.items()}
    return handler, SimpleNamespace(**args, **dict(zip(positional, words)))


def run(argv: list[str]) -> int:
    parsed = _parse(argv)
    if isinstance(parsed, int):
        return parsed
    handler, args = parsed
    out = _Output(args.output)
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
