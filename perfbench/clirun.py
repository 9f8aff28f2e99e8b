"""Workload ``cli``: ``python -m qcone3.cli ... --output records``, one at a time.

A user of the command line waits on the whole process: interpreter start,
``import qcone3``, argument parsing, one cold call into ``grammar`` and the
computing module, and the records output.  In-process workloads cannot see
import-time costs; this one does.

A block is ``BLOCK`` child processes in seeded order: each of the 10
subcommands once with valid input, ``EXTRA_VALID`` more valid ones,
``MALFORMED`` inputs that must exit 2 with a parse error, one each of the
domain errors in ``DOMAIN_ERRORS`` (exit 1, class named on stderr), and
``NONFINITE`` element in positional form with a non-finite coefficient.
The last must be rejected too (ROADMAP aim 3); today it exits 0 and prints
NaN or Infinity, which counts as the known defect.

Operations are timed around the child process only.  Their records are
checked after the timed loop, against values the library computes in this
process for the same inputs.
"""

from __future__ import annotations

import functools
import json
import math
import random
import resource
import subprocess
import time

from qcone3 import ConePoint, bislice, cauchy, grammar, qdet, qsplit, zeros

import algebra
import calibration
import inputs
import quadrature
from outcome import DEFECT, FAIL, OK

SUBCOMMANDS = (
    "split",
    "cone-check",
    "eval",
    "star",
    "roots",
    "mult",
    "det",
    "cauchy-verify",
    "dbar-check",
    "kernel",
)
EXTRA_VALID = 2
MALFORMED = 4
DOMAIN_ERRORS = ("NotInCone", "PointOutsideContour", "OnSingularSphere")
NONFINITE = 1
BLOCK = len(SUBCOMMANDS) + EXTRA_VALID + MALFORMED + len(DOMAIN_ERRORS) + NONFINITE
#: Bounded node counts; an unbounded ``--nodes`` is never sent.
CAUCHY_NODES = (64, 128, 256)
RADIUS = 2.0
#: Tail percentile level: at least 10 samples beyond it in a 30-second run
#: of about 180 child processes on a slow machine.
TAIL_LEVEL = 90.0
WARM_UP_OPS = 2
REL = 1e-12

SIZES = {
    "block": BLOCK,
    "rejected_per_block": MALFORMED + len(DOMAIN_ERRORS),
    "nonfinite_per_block": NONFINITE,
    "cauchy_nodes": list(CAUCHY_NODES),
    "poly_degree": [1, 3],
}


def _close(a, b) -> bool:
    """Equal within REL, elementwise over nested lists of numbers."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return abs(a - b) <= REL * (1.0 + abs(b))


def _records(proc) -> list[dict]:
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def _run(ctx, tr, argv: list[str]):
    """One child process; the benchmark's span around it is the ``cli`` layer."""
    cmd = [ctx.python, "-m", "qcone3.cli", argv[0], "--output=records", *argv[1:]]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, env=ctx.env, cwd=ctx.root, capture_output=True, text=True, timeout=120
    )
    stop = time.perf_counter()
    if tr.on:
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        tr.add("cli.child_cpu_s", cpu)
        named = proc.returncode == 2 and proc.stderr.startswith("parse error")
        named |= proc.returncode == 1 and proc.stderr.startswith("error: ")
        tr.record("cli", start, stop, named)
    return proc


def _valid(argv: list[str], expect):
    """Operation whose records must match ``expect(records)``, checked later."""

    def op(ctx, tr):
        proc = _run(ctx, tr, argv)
        return lambda: OK if proc.returncode == 0 and expect(_records(proc)) else FAIL

    return op


def _cone_point_text(rng, dist_min=0.0, dist_max=1.0) -> str:
    dist = rng.uniform(dist_min, dist_max)
    theta = rng.uniform(0.15, math.pi - 0.15)
    i1, i2 = inputs.unit_imaginary(rng), inputs.unit_imaginary(rng)
    x = inputs.cone_element(dist * math.cos(theta), dist * math.sin(theta), i1, i2)
    return inputs.positional(x)


def _small_poly(rng, low=1, high=3) -> list[list[float]]:
    return [inputs.dyadic_element(rng, 8) for _ in range(rng.randint(low, high) + 1)]


# -- valid inputs, one generator per subcommand ------------------------------------


def _split(rng):
    x = inputs.terms(inputs.dyadic_element(rng))

    def expect(recs):
        p, q = qsplit.split(grammar.parse_element(x))
        return _close(recs[0]["p"], p.as_tuple()) and _close(recs[0]["q"], q.as_tuple())

    return _valid(["split", "--", x], expect)


def _cone_check(rng):
    if rng.random() < 0.5:
        units = rng.sample(inputs.AXIS_UNITS, 2)
        x = inputs.positional(inputs.cone_element(inputs.dyadic(rng), 1.0, *units))
    else:
        x = inputs.terms(inputs.dyadic_element(rng))

    def expect(recs):
        e = grammar.parse_element(x)
        got = recs[0]
        return got["in_cone"] == qsplit.in_cone(e) and _close(
            got["residuals"], qsplit.cone_residuals(e)
        )

    return _valid(["cone-check", "--", x], expect)


def _eval(rng):
    poly = inputs.coeff_list(_small_poly(rng))
    at = inputs.terms(inputs.dyadic_element(rng))

    def expect(recs):
        value = grammar.parse_poly(poly).eval(grammar.parse_element(at))
        return _close(recs[0]["value"], value.coeffs)

    return _valid(["eval", f"--poly={poly}", f"--at={at}"], expect)


def _star(rng):
    left = inputs.coeff_list(_small_poly(rng, 1, 2))
    right = inputs.coeff_list(_small_poly(rng, 1, 2))
    at = inputs.terms(inputs.dyadic_element(rng))

    def expect(recs):
        f, g, x = grammar.parse_poly(left), grammar.parse_poly(right), grammar.parse_element(at)
        product = bislice.star_mul(f, g)
        return (
            _close(recs[0]["coeffs"], [c.coeffs for c in product.coeffs])
            and _close(recs[0]["value"], product.eval(x).coeffs)
            and _close(recs[0]["pointwise"], bislice.star_mul_pointwise(f, g, x).coeffs)
        )

    return _valid(["star", f"--left={left}", f"--right={right}", f"--at={at}"], expect)


def _roots(rng):
    shapes = (rng.choice(algebra.SHAPES), rng.choice(algebra.SHAPES))
    sides = [algebra.quadratic_side(rng, s) for s in shapes]
    alpha, beta = inputs.join(sides[0][0], sides[1][0]), inputs.join(sides[0][1], sides[1][1])
    text = inputs.factored([alpha, beta])
    case = algebra.expected_case(shapes, sides)
    scale = (1.0 + inputs.magnitude(alpha) + inputs.magnitude(beta)) ** 2

    def expect(recs):
        _, consts = grammar.parse_factored(text)
        zs = zeros.classify_quadratic(*consts)
        summary = recs[-1]
        return (
            summary["case"] == case == zs.case
            and len(recs) == len(zs.pairs) + 1
            and summary["max_residual"] <= algebra.ROOTS_TOL * scale
        )

    return _valid(["roots", f"--factored={text}"], expect)


def _mult(rng):
    x0, y = inputs.dyadic(rng, 8), rng.choice((0.5, 1.0))
    units = [rng.choice(inputs.AXIS_UNITS) for _ in range(4)]
    constants = [inputs.cone_element(x0, y, units[0], units[1])]
    constants.append(inputs.cone_element(x0, y, tuple(-c for c in units[0]), units[2]))
    if rng.random() < 0.5:
        constants.append(inputs.cone_element(x0 + 0.5, y, units[3], units[1]))
    text, sphere = inputs.factored(constants), f"{x0},{y}"

    def expect(recs):
        _, consts = grammar.parse_factored(text)
        r = zeros.multiplicities(consts, grammar.parse_sphere(sphere))
        got = recs[0]
        return all(
            got[k] == getattr(r, k)
            for k in (
                "four_dimensional",
                "isolated",
                "first_kind",
                "second_kind",
                "p_spherical_power",
                "q_spherical_power",
            )
        )

    return _valid(["mult", f"--factored={text}", f"--sphere={sphere}"], expect)


def _det(rng):
    text = inputs.matrix(algebra.matrix_entries(rng))

    def expect(recs):
        m = grammar.parse_matrix(text)
        d1, d2 = qdet.det_both_sides(m)
        got = recs[0]
        invertible = qdet.is_right_invertible(m)
        return _close([got["det"], got["det_second"]], [d1, d2]) and (
            got["right_invertible"] == invertible
        )

    return _valid(["det", f"--matrix={text}"], expect)


def _cauchy_verify(rng):
    raw = _small_poly(rng)
    poly = inputs.coeff_list(raw)
    nodes = rng.choice(CAUCHY_NODES)
    at = _cone_point_text(rng, 0.3 * RADIUS, 0.7 * RADIUS)
    bound = quadrature.reconstruction_bound(inputs.poly_bound(raw, RADIUS), nodes)

    def expect(recs):
        got = recs[0]
        direct = grammar.parse_poly(poly).eval(ConePoint.from_element(grammar.parse_element(at)))
        return (
            _close(got["expected"], direct.coeffs)
            and inputs.max_abs_diff(got["value"], direct.coeffs) <= bound
            and got["error"] <= bound
            and got["nodes"] == nodes
        )

    argv = [
        "cauchy-verify",
        f"--poly={poly}",
        "--center=0",
        f"--radius={RADIUS}",
        f"--nodes={nodes}",
        f"--at={at}",
    ]
    return _valid(argv, expect)


def _dbar_check(rng):
    poly = inputs.coeff_list(_small_poly(rng))
    at = _cone_point_text(rng, 0.3, 1.5)

    def expect(recs):
        p, x = grammar.parse_poly(poly), ConePoint.from_element(grammar.parse_element(at))
        got = recs[0]
        return _close(
            [got["residual_pair"], got["residual_single"]],
            [bislice.dbar_residual(p, x), bislice.dbar_residual_single(p, x)],
        )

    return _valid(["dbar-check", f"--poly={poly}", f"--at={at}"], expect)


def _kernel(rng):
    s = _cone_point_text(rng, 1.5, 2.0)
    x = _cone_point_text(rng, 0.2, 1.0)

    def expect(recs):
        cs = ConePoint.from_element(grammar.parse_element(s))
        cx = ConePoint.from_element(grammar.parse_element(x))
        value = cauchy.cauchy_kernel(cs, cx)
        return _close(recs[0]["value"], value.coeffs)

    return _valid(["kernel", f"--s={s}", f"--x={x}"], expect)


VALID = {
    "split": _split,
    "cone-check": _cone_check,
    "eval": _eval,
    "star": _star,
    "roots": _roots,
    "mult": _mult,
    "det": _det,
    "cauchy-verify": _cauchy_verify,
    "dbar-check": _dbar_check,
    "kernel": _kernel,
}

# -- inputs that must be rejected ------------------------------------------------


def _malformed(rng):
    n = inputs.number(abs(inputs.dyadic(rng)) + 1.0)
    argv = rng.choice(
        (
            ["split", "--", f"{n}e4"],
            ["cone-check", "--", f"{n} + + e1"],
            ["split", "--", ",".join([n] * 7)],
            ["eval", f"--poly=coeffs: [{n}, e1", "--at=e1"],
            ["det", f"--matrix=[[{n}, e1, e2], [1, e3]]"],
            ["mult", "--factored=(x - e1)*(x - e23)", f"--sphere={n}"],
            ["kernel", f"--s={n}*e5", "--x=e1"],
        )
    )

    def op(ctx, tr):
        proc = _run(ctx, tr, argv)
        rejected = proc.returncode == 2 and proc.stderr.startswith("parse error")
        return lambda: OK if rejected else FAIL

    return op


def _domain_error(rng, name: str):
    if name == "NotInCone":
        bad = inputs.dyadic_element(rng)
        bad[7] = 1.0
        x = _cone_point_text(rng, 0.2, 1.0)
        argv = ["kernel", f"--s={inputs.positional(bad)}", f"--x={x}"]
    elif name == "PointOutsideContour":
        argv = [
            "cauchy-verify",
            f"--poly={inputs.coeff_list(_small_poly(rng))}",
            f"--radius={RADIUS}",
            f"--at={_cone_point_text(rng, 1.2 * RADIUS, 1.8 * RADIUS)}",
        ]
    else:  # OnSingularSphere: x shares real part and |Im| with s on both sides
        alpha, beta = inputs.dyadic(rng), rng.choice((0.5, 1.0, 1.5))
        s, x = (
            inputs.positional(inputs.cone_element(alpha, beta, *rng.sample(inputs.AXIS_UNITS, 2)))
            for _ in range(2)
        )
        argv = ["kernel", f"--s={s}", f"--x={x}"]

    def op(ctx, tr):
        proc = _run(ctx, tr, argv)
        named = proc.stderr.startswith(f"error: {name}:")
        return lambda: OK if proc.returncode == 1 and named else FAIL

    return op


def _nonfinite(rng):
    coeffs = [inputs.dyadic(rng) for _ in range(8)]
    coeffs[rng.randrange(8)] = rng.choice((math.nan, math.inf, -math.inf))
    text = ",".join(repr(c) for c in coeffs)
    if rng.random() < 0.5:
        argv = ["split", "--", text]
    else:
        argv = ["eval", "--poly=coeffs: [1, e1]", f"--at={text}"]

    def op(ctx, tr):
        proc = _run(ctx, tr, argv)

        def check():
            if proc.returncode == 2 and proc.stderr.startswith("parse error"):
                return OK
            if proc.returncode == 1 and proc.stderr.startswith("error: "):
                return OK
            if proc.returncode == 0 and ("NaN" in proc.stdout or "Infinity" in proc.stdout):
                return DEFECT
            return FAIL

        return check

    return op


def block(rng: random.Random, ctx) -> list:
    """One block of (kind, operation) pairs; each operation starts one child."""
    plan = [(name, VALID[name](rng)) for name in SUBCOMMANDS]
    plan += [(name, VALID[name](rng)) for name in rng.sample(SUBCOMMANDS, EXTRA_VALID)]
    plan += [("malformed", _malformed(rng)) for _ in range(MALFORMED)]
    plan += [("domain-error", _domain_error(rng, name)) for name in DOMAIN_ERRORS]
    plan += [("nonfinite", _nonfinite(rng)) for _ in range(NONFINITE)]
    rng.shuffle(plan)
    return [(kind, functools.partial(op, ctx)) for kind, op in plan]


def reference(ctx):
    """Calibration reference for this workload's timings: children are timed."""
    return calibration.Interpreter(ctx)
