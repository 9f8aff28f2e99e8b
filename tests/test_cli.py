"""Command-line behavior: outputs, record schemas, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcone3
from qcone3 import cauchy
from qcone3 import cli
from qcone3.cli import run
from qcone3.grammar import MAX_COEFFS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.strip().splitlines()]


def test_split_pretty(capsys):
    code, out, _ = invoke(capsys, "split", "e1")
    assert code == 0
    assert out.strip() == "(-e23 | e23)"


def test_split_records(capsys):
    code, out, _ = invoke(capsys, "split", "e1", "--output", "records")
    assert code == 0
    (rec,) = records(out)
    assert rec == {
        "cmd": "split",
        "element": [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "p": [0.0, -1.0, 0.0, 0.0],
        "q": [0.0, 1.0, 0.0, 0.0],
    }


def test_cone_check(capsys):
    code, out, _ = invoke(capsys, "cone-check", "e123")
    assert code == 0 and out.strip() == "false"
    code, out, _ = invoke(capsys, "cone-check", "1 + 2e1 - e2 + e3")
    assert code == 0 and out.strip() == "true"
    # a large cone point whose quadratic residual is rounding (3.7e-9), which
    # kernel --s and dbar-check --at accept as well
    big = (
        "3000.0,79.27405783630957,2020.7259421636904,779.2740578363096,"
        "4820.72594216369,2020.7259421636904,4120.72594216369,0.0"
    )
    code, out, _ = invoke(capsys, "cone-check", big)
    assert code == 0 and out.strip() == "true"
    # split (1e6 + 10e23, 1e6): a large real part does not hide r2 = 25
    code, out, _ = invoke(capsys, "cone-check", "1000000,-5,0,0,0,0,5,0")
    assert code == 0 and out.strip() == "false"
    # x3 x12 = -1e461 overflows, but the record holds the residuals in_cone
    # compares with tol, relative to max|x_i| and max|x_im|^2: (0, 1e-153)
    element = f"1{'0' * 307}e3 - 1{'0' * 154}e12"
    code, out, _ = invoke(capsys, "cone-check", element)
    assert code == 0 and out.strip() == "true"
    code, out, _ = invoke(capsys, "cone-check", element, "--output", "records")
    record = json.loads(out)
    assert code == 0 and record["in_cone"] is True
    assert record["residuals"] == [0.0, 1e-153]


def test_det_pretty(capsys):
    code, out, _ = invoke(capsys, "det", "--matrix", "[[e1, e2+e23],[-1, e2]]")
    assert code == 0
    first_line = out.splitlines()[0]
    assert first_line.startswith("1.7320508075")


def test_det_records_schema(capsys):
    code, out, _ = invoke(
        capsys, "det", "--matrix", "[[e1, e2+e23],[-1, e2]]", "--output", "records"
    )
    assert code == 0
    (rec,) = records(out)
    assert set(rec) == {
        "cmd",
        "det",
        "det_second",
        "tilde",
        "tilde2",
        "right_invertible",
    }
    assert abs(rec["det"] - math.sqrt(3)) < 1e-12
    assert abs(rec["det_second"] - math.sqrt(3)) < 1e-12
    assert rec["right_invertible"] is True


def test_det_tol_decides_right_invertibility_and_nothing_else(capsys):
    # det(diag(0.001, 1)) / m^2 = 0.001 lies between the two tolerances
    argv = ("det", "--matrix", "[[0.001, 0], [0, 1]]")
    outputs = {}
    for tol in ((), ("--tol", "0.01")):
        for mode in ("pretty", "records"):
            code, out, _ = invoke(capsys, *argv, *tol, "--output", mode)
            assert code == 0
            outputs[tol, mode] = out
    loose, strict = (records(outputs[tol, "records"])[0] for tol in ((), ("--tol", "0.01")))
    assert loose["det"] == strict["det"] == 0.001
    assert (loose.pop("right_invertible"), strict.pop("right_invertible")) == (True, False)
    assert loose == strict
    assert outputs[(), "pretty"] == outputs[("--tol", "0.01"), "pretty"]


@pytest.mark.parametrize("mode", ["pretty", "records"])
def test_det_runs_one_schur_form_per_side(capsys, monkeypatch, mode):
    from qcone3 import qdet

    sides = []
    schur = qdet._schur
    monkeypatch.setattr(qdet, "_schur", lambda side: sides.append(side) or schur(side))
    code, out, _ = invoke(capsys, "det", "--matrix", "[[e1, e2+e23],[-1, e2]]", "--output", mode)
    assert code == 0
    assert len(sides) == 2


def test_parse_error_exit_code_and_caret(capsys):
    code, out, err = invoke(capsys, "split", "2e23 + z")
    assert code == 2
    assert out == ""
    assert "^" in err and "2e23 + z" in err


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, "kernel", "--s", "e1", "--x", "e1")
    assert code == 1
    assert "OnSingularSphere" in err
    code, _, err = invoke(capsys, "cone-check", "bogus!")
    assert code == 2


def test_eval_and_star(capsys):
    code, out, _ = invoke(
        capsys, "eval", "--poly", "(x - e12)*(x - e23)", "--at", "e12"
    )
    assert code == 0 and out.strip() == "0"
    code, out, _ = invoke(
        capsys,
        "star",
        "--left",
        "coeffs: [-e12, 1]",
        "--right",
        "coeffs: [-e23, 1]",
        "--output",
        "records",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["coeffs"][0] == [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0]


def test_roots_records(capsys):
    code, out, _ = invoke(
        capsys,
        "roots",
        "--factored",
        "(x - 2e23)*(x + e23 - 2e13 - e1 + 2e2)",
        "--output",
        "records",
    )
    assert code == 0
    recs = records(out)
    assert recs[-1]["cmd"] == "roots-summary"
    assert recs[-1]["case"] == "3"
    assert recs[-1]["max_residual"] < 1e-9
    pair_recs = [r for r in recs if r["cmd"] == "roots"]
    assert len(pair_recs) == 2
    assert all(r["p"]["kind"] == "sphere" for r in pair_recs)
    point_values = [r["q"]["value"] for r in pair_recs if r["q"]["kind"] == "point"]
    assert [0.0, 2.0, 0.0, 0.0] in point_values


def test_roots_golden_records(capsys):
    # exact record stream for the single-pair case, pinning the schema
    code, out, _ = invoke(
        capsys,
        "roots",
        "--factored",
        "(x - e12)*(x - e23)",
        "--output",
        "records",
    )
    assert code == 0
    recs = records(out)
    assert recs[0] == {
        "cmd": "roots",
        "case": "5",
        "p": {"kind": "point", "value": [0.0, 0.0, 0.0, 1.0]},
        "q": {"kind": "point", "value": [0.0, 0.0, 0.0, 1.0]},
    }
    assert recs[1]["cmd"] == "roots-summary" and recs[1]["case"] == "5"
    assert set(recs[1]) == {"cmd", "case", "max_residual"}


def test_roots_requires_quadratic(capsys):
    code, _, err = invoke(capsys, "roots", "--factored", "(x - e1)")
    assert code == 1 and "2 factors" in err


def test_mult_records(capsys):
    code, out, _ = invoke(
        capsys,
        "mult",
        "--factored",
        "(x - e1)*(x - e23)",
        "--sphere",
        "0,1",
        "--output",
        "records",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["four_dimensional"] == 2
    assert rec["isolated"] == 2
    assert rec["first_kind"] == 4
    assert rec["second_kind"] == 0
    assert rec["q_points"] == [[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]


def test_cauchy_verify_records(capsys):
    code, out, _ = invoke(
        capsys,
        "cauchy-verify",
        "--poly",
        "coeffs: [0, 0, 1]",
        "--radius",
        "2",
        "--nodes",
        "256",
        "--at",
        "0.5e1",
        "--output",
        "records",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["error"] < 1e-7
    assert rec["nodes"] == 256


def test_cauchy_verify_odd_node_count(capsys):
    # 17 nodes: no node at t = pi, so the last table node stands for two.
    # What is left is the trapezoid's own error, about (|x| / r)^17 = 0.25^17.
    argv = ("cauchy-verify", "--poly", "coeffs: [1, -e1, e12 + e23]", "--radius", "2")
    argv += ("--nodes", "17", "--at", "0.3 + 0.4e1")
    code, out, _ = invoke(capsys, *argv, "--output", "records")
    assert code == 0
    (rec,) = records(out)
    assert rec["nodes"] == 17
    assert 1e-11 < rec["error"] < 1e-9
    assert max(abs(a - b) for a, b in zip(rec["value"], rec["expected"])) < 1e-9
    code, out, _ = invoke(capsys, *argv, "--output", "pretty")
    assert code == 0
    assert out.splitlines()[-1] == f"error: {rec['error']:.3e} at 17 nodes"


def test_dbar_check(capsys):
    code, out, _ = invoke(
        capsys,
        "dbar-check",
        "--poly",
        "coeffs: [0, 0, 0, 1]",
        "--at",
        "0.4 + e1",
        "--fd-step",
        "1e-4",
        "--output",
        "records",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["residual_pair"] < 1e-6
    assert rec["residual_single"] < 1e-6


def test_kernel_value(capsys):
    code, out, _ = invoke(capsys, "kernel", "--s", "2", "--x", "e1", "--output", "records")
    assert code == 0
    (rec,) = records(out)
    assert rec["value"] == [0.4, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_usage_error_exit_code(capsys):
    code = run(["not-a-command"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_split_rejects_non_finite_coefficient(capsys, bad):
    code, out, err = invoke(capsys, "split", f"1,0,0,{bad},0,0,0,0")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error") and "finite" in err


CAUCHY_ARGS = ("cauchy-verify", "--poly", "coeffs: [0, 0, 1]", "--at", "0.5e1")


@pytest.mark.parametrize(
    "flags", [("--radius", "-1"), ("--radius", "2", "--nodes", "8")]
)
def test_cauchy_verify_rejects_invalid_contour(capsys, flags):
    code, out, err = invoke(capsys, *CAUCHY_ARGS, *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: InvalidContour:")


def test_cauchy_verify_rejects_unbounded_node_count():
    # In a child with a timeout, so unbounded work fails the test, not the run.
    src = os.path.dirname(os.path.dirname(qcone3.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [*CAUCHY_ARGS, "--radius", "2", "--nodes", "100000000"]
    proc = subprocess.run(
        [sys.executable, "-m", "qcone3.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: InvalidContour:")


@pytest.mark.parametrize("sphere", ["nan,1", "inf,1"])
def test_mult_rejects_non_finite_sphere(capsys, sphere):
    code, out, err = invoke(
        capsys, "mult", "--factored", "(x - e1)*(x - e23)", "--sphere", sphere
    )
    assert code == 2
    assert out == ""
    assert err.startswith("parse error") and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("cone-check", "e1", "--tol", "nan"),
        ("cone-check", "e1", "--tol", "-1"),
        ("roots", "--factored", "(x - e1)*(x - e23)", "--tol", "nan"),
    ],
)
def test_rejects_bad_tolerance(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--tol" in err and "finite number >= 0" in err


@pytest.mark.parametrize("step", ["0", "nan"])
def test_dbar_check_rejects_bad_step(capsys, step):
    code, out, err = invoke(
        capsys, "dbar-check", "--poly", "coeffs: [0, 0, 1]", "--at", "e1", "--fd-step", step
    )
    assert code == 2
    assert out == ""
    assert "--fd-step" in err and "finite number > 0" in err


def test_zero_tolerance_is_accepted(capsys):
    code, out, _ = invoke(capsys, "cone-check", "e1", "--tol", "0")
    assert code == 0 and out.strip() == "true"


HUGE = "9" * 200  # 1e200: finite as input, its square overflows


@pytest.mark.parametrize(
    "argv",
    [
        ("star", "--left", f"coeffs: [{HUGE}]", "--right", f"coeffs: [{HUGE}e1]"),
        (
            "star",
            "--left",
            f"coeffs: [{HUGE}]",
            "--right",
            f"coeffs: [{HUGE}e1]",
            "--at",
            "e1",
        ),
        ("eval", "--poly", f"coeffs: [0, {HUGE}]", "--at", f"{HUGE}e1"),
    ],
)
@pytest.mark.parametrize("mode", ["pretty", "records"])
def test_overflow_is_a_named_error(capsys, argv, mode):
    code, out, err = invoke(capsys, *argv, "--output", mode)
    assert code == 1
    assert out == ""
    assert err.startswith("error: NonFiniteResult:")


def _coeffs_text(n: int) -> str:
    return "coeffs: [" + ", ".join(f"{k % 7}e1 - 0.5" for k in range(n)) + "]"


def _factored_text(n_factors: int) -> str:
    return "*".join(f"(x - 0.{k % 9 + 1}e23)" for k in range(n_factors))


@pytest.mark.parametrize(
    "poly", [_coeffs_text(MAX_COEFFS), _factored_text(MAX_COEFFS - 1)]
)
def test_polynomial_at_size_cap_is_accepted(capsys, poly):
    code, out, _ = invoke(capsys, "eval", "--poly", poly, "--at", "0.5e1")
    assert code == 0 and out.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--poly", _coeffs_text(MAX_COEFFS + 1), "--at", "e1"),
        ("eval", "--poly", _factored_text(MAX_COEFFS), "--at", "e1"),
        ("star", "--left", _coeffs_text(MAX_COEFFS + 1), "--right", "coeffs: [1]"),
        ("mult", "--factored", _factored_text(MAX_COEFFS), "--sphere", "0,1"),
    ],
)
def test_polynomial_past_size_cap_is_rejected(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: InputTooLarge:")


class _NodeEvaluated(Exception):
    pass


@pytest.mark.parametrize("nodes, accepted", [(8192, True), (8193, False)])
def test_cauchy_verify_bounds_nodes_times_coefficients(
    capsys, monkeypatch, nodes, accepted
):
    # 256 coefficients: 8192 nodes is MAX_NODE_TERMS exactly, 8193 one node
    # past.  A sentinel replaces the node loop, so reaching it costs nothing.
    def no_nodes(poly, contour):
        raise _NodeEvaluated

    monkeypatch.setattr(cauchy, "_slice_table", no_nodes)
    assert (nodes * MAX_COEFFS <= cauchy.MAX_NODE_TERMS) == accepted
    poly = _coeffs_text(MAX_COEFFS)
    argv = ("cauchy-verify", "--poly", poly, "--radius", "2", "--at", "0.3e1")
    argv += ("--nodes", str(nodes))
    if accepted:
        with pytest.raises(_NodeEvaluated):
            run(list(argv))
        return
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: InputTooLarge:")


def test_cauchy_verify_defaults_to_512_nodes(capsys):
    argv = (*CAUCHY_ARGS, "--radius", "2", "--output", "records")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert records(out)[0]["nodes"] == cauchy.DEFAULT_NODES == 512


# 1e80, 1e200, 1e-41 and 1e-310 in the term grammar, which has no exponent part
BIG = "1" + "0" * 80
HUGE = "1" + "0" * 200
TINY = "0." + "0" * 40 + "1"
SUBNORMAL = "0." + "0" * 309 + "1"


def _diagonal(entry: str) -> tuple[str, ...]:
    return ("det", "--matrix", f"[[{entry}, 0], [0, {entry}]]")


@pytest.mark.parametrize(
    "argv, error",
    [
        (_diagonal(HUGE), "NonFiniteResult"),
        (
            ("cauchy-verify", "--poly", "coeffs: [1, e1]", "--radius", "1e200", "--at", "e1"),
            "InvalidContour",
        ),
    ],
)
@pytest.mark.parametrize("mode", ["pretty", "records"])
def test_squares_past_float_range_are_named_errors(capsys, argv, error, mode):
    code, out, err = invoke(capsys, *argv, "--output", mode)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {error}:")


# det 1e-620 underflows to 0, but det / m^2 = 1 still reads invertible
DIAGONALS = [(BIG, 1e160), (TINY, 1e-82), (SUBNORMAL, 0.0)]


@pytest.mark.parametrize("entry, want", DIAGONALS)
def test_det_squares_past_float_range_of_the_radicand_pretty(capsys, entry, want):
    # the paper's radicand n(a)n(d) is 1e320 and 1e-164: the pivoted form
    # needs neither
    code, out, _ = invoke(capsys, *_diagonal(entry))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == lines[-1].removeprefix("formula on second side: ") == f"{want:.12g}"


@pytest.mark.parametrize("entry, want", DIAGONALS)
def test_det_squares_past_float_range_of_the_radicand_records(capsys, entry, want):
    code, out, _ = invoke(capsys, *_diagonal(entry), "--output", "records")
    assert code == 0
    (rec,) = records(out)
    assert rec["det"] == rec["det_second"] == want
    assert rec["right_invertible"] is True


@pytest.mark.parametrize(
    "s, x, want",
    [(f"{HUGE}e23", "e23", -1e-200), ("e23", f"{HUGE}e13", 1e-200)],
)
def test_kernel_past_the_modulus_range(capsys, s, x, want):
    # |s|^2 or x^2 is 1e400 in size; the kernel, of degree -1, is about
    # (conj(s) - x) / |s|^2 or -(conj(s) - x) / |x|^2
    code, out, _ = invoke(capsys, "kernel", "--s", s, "--x", x, "--output", "records")
    assert code == 0
    (rec,) = records(out)
    value = [v for v in rec["value"] if v]
    assert len(value) == 1 and math.isclose(value[0], want, rel_tol=1e-15)


MULT_FAR = ("mult", "--factored", "(x - e1)*(x - e23)", "--sphere", "0,1e200")


def test_mult_at_a_sphere_past_float_range_pretty(capsys):
    code, out, _ = invoke(capsys, *MULT_FAR)
    assert code == 0
    assert out.splitlines() == [
        "four-dimensional spherical: 0 at (sphere, sphere)",
        "isolated: 0 at (0, 0)",
        "two-dimensional first kind: 0",
        "two-dimensional second kind: 0",
    ]


def test_mult_at_a_sphere_past_float_range_records(capsys):
    code, out, _ = invoke(capsys, *MULT_FAR, "--output", "records")
    assert code == 0
    (rec,) = records(out)
    counts = ("four_dimensional", "isolated", "first_kind", "second_kind")
    assert [rec[k] for k in counts] == [0, 0, 0, 0]
    assert rec["p_points"] == rec["q_points"] == []


@pytest.mark.parametrize("mode", ["pretty", "records"])
@pytest.mark.parametrize("center", ["1e200", "1e100"])
def test_mult_at_a_real_base_past_float_range_counts_no_points(capsys, mode, center):
    # neither factor lies at the real point, however far away it is
    argv = ("mult", "--factored", "(x - e1)*(x - e23)", "--output", mode)
    code, out, _ = invoke(capsys, *argv, "--sphere", f"{center},0")
    assert code == 0
    if mode == "pretty":
        assert "isolated: 0 at (0, 0)" in out.splitlines()
    else:
        assert records(out)[0]["isolated"] == 0


H = "1" + "0" * 200  # 1e200: the squared modulus of a factor this size overflows to inf
T = "0." + "0" * 160 + "1"  # 1e-161


@pytest.mark.parametrize(
    "factored, sphere, isolated",
    [
        (f"(x - {H}e23)", "0,1", "0 at (0, 0)"),
        (f"(x - {H}e23)*(x - e1)", f"0,{H}", f"2 at ({H}e23, {H}e23)"),
        # e1 = (-e23 | e23) moves left past the huge factor
        (f"(x - {H}e23)*(x - e1)", "0,1", "2 at (-e23, e23)"),
        (f"(x - {T}e23)*(x - e1)", "0,1", "2 at (-e23, e23)"),
        ("(x - 1000000000000e23)", "0,1000000000000", "2 at (1000000000000e23, 1000000000000e23)"),
    ],
    ids=["huge-factor-off", "huge-factor-on", "swap-past-huge", "swap-past-tiny", "1e12"],
)
def test_mult_sphere_membership_is_safe_at_both_ends_of_the_scale(
    capsys, factored, sphere, isolated
):
    code, out, _ = invoke(capsys, "mult", "--factored", factored, "--sphere", sphere)
    assert code == 0
    assert out.splitlines()[:2] == [
        "four-dimensional spherical: 0 at (sphere, sphere)",
        f"isolated: {isolated}",
    ]


# 1/0, 0/0, 0 and 1/1e-321 (which overflows to inf): none is a finite, nonzero scale.
BAD_SCALES = ["1/0", "0/0", "0", "1/0." + "0" * 320 + "1"]


@pytest.mark.parametrize("scale", BAD_SCALES, ids=["1/0", "0/0", "0", "1/1e-321"])
@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "--factored", "{}*(x - e1)*(x - e2)"),
        ("mult", "--factored", "{}*(x - e1)", "--sphere", "0,1"),
        ("eval", "--poly", "{}*(x - e1)", "--at", "e2"),
    ],
    ids=["roots", "mult", "eval"],
)
def test_leading_scale_must_be_finite_and_nonzero(capsys, argv, scale):
    argv = [arg.format(scale) for arg in argv]
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    message, echoed, caret = err.splitlines()
    assert message == "parse error: leading scale must be finite and nonzero"
    assert echoed.strip() == argv[2]
    assert caret == "  ^"


@pytest.mark.parametrize("mode", ["pretty", "records"])
def test_roots_nan_residual_is_a_named_error(capsys, mode):
    # lead 1e300 times constants of 1e11 overflows the coefficients to inf
    # and their differences to nan; the residual must not read 0.
    factored = "1" + "0" * 300 + "*(x - 100000000000e1)*(x - 100000000000e2)"
    code, out, err = invoke(capsys, "roots", "--factored", factored, "--output", mode)
    assert code == 1
    assert out == ""
    assert err.startswith("error: NonFiniteResult: roots-summary: max_residual")


ROOTS_SMALL_SPHERE = ("roots", "--factored", "(x - 0.00000000001e1)*(x + 0.00000000001e1)")
ROOTS_NEAR_REAL = ("roots", "--factored", "(x - 1 - 0.00000000001e1)*(x - 1 + 0.00000000001e1)")


@pytest.mark.parametrize(
    "argv, center, radius",
    [
        ((*ROOTS_SMALL_SPHERE, "--tol", "0"), 0, 1e-11),
        (ROOTS_SMALL_SPHERE, 0, 1e-11),
        ((*ROOTS_NEAR_REAL, "--tol", "0"), 1, 1e-11),
        (ROOTS_NEAR_REAL, 1, 0.0),
    ],
)
def test_roots_pretty_shape_is_the_records_shape(capsys, argv, center, radius):
    # x^2 + 1e-22 vanishes on the sphere of radius 1e-11, which no tolerance
    # folds to a point: beside its center 0 the radius is never negligible.
    # Around center 1 the default tolerance folds it to the real point 1, and
    # --tol 0 keeps it.
    code, out, _ = invoke(capsys, *argv, "--output", "records")
    assert code == 0
    pair, _ = records(out)
    for side in (pair["p"], pair["q"]):
        assert side == {"kind": "sphere", "center": center, "radius": radius}
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    shape = f"sphere(center {center}, radius 1e-11)" if radius else f"point {center}"
    assert out.splitlines()[:4] == [
        "case: 1.1",
        f"p-side: {shape}",
        f"q-side: {shape}",
        f"zero pair: ({shape} | {shape})",
    ]


ROOTS_1E160 = ("roots", "--factored", f"(x - 1{'0' * 160}e23)*(x - e1)")


def test_roots_past_the_modulus_range_pretty(capsys):
    # |1e160 e23|^2 overflows; both zeros on each side are finite
    code, out, _ = invoke(capsys, *ROOTS_1E160)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case: 4"
    assert sum(line.startswith("zero pair: ") for line in lines) == 4
    assert "inf" not in out and "nan" not in out
    # about 1e160 absolute: rounding, relative to |x|^2 ~ 1e320
    assert float(lines[-1].rpartition(": ")[2]) < 1e170


def test_roots_past_the_modulus_range_records(capsys):
    code, out, _ = invoke(capsys, *ROOTS_1E160, "--output", "records")
    assert code == 0
    recs = records(out)
    assert [r["case"] for r in recs] == ["4"] * 5
    assert [r["p"]["kind"] for r in recs[:4]] == [r["q"]["kind"] for r in recs[:4]] == ["point"] * 4
    values = [x for r in recs[:4] for x in r["p"]["value"] + r["q"]["value"]]
    assert all(map(math.isfinite, values + [recs[4]["max_residual"]]))
    assert max(values) == 1e160


@pytest.mark.parametrize("mode", ["pretty", "records"])
def test_mult_near_the_float_maximum(capsys, mode):
    # the two factors commute; the swap past the first must not overflow
    factored = f"(x - 1{'0' * 308}e23)*(x - 15{'0' * 307}e23)"
    argv = ("mult", "--factored", factored, "--sphere", f"0,15{'0' * 307}", "--output", mode)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    if mode == "pretty":
        assert out.splitlines()[1].startswith("isolated: 2 at ")
    else:
        (rec,) = records(out)
        assert rec["isolated"] == 2
        assert rec["p_points"] == rec["q_points"] == [[0.0, 1.5e308, 0.0, 0.0]]


# -- the exit contract on random argv ------------------------------------------------


def _plain(mantissa: int, exponent: int) -> str:
    """``mantissa * 10**exponent`` written out in full: the element grammar's
    numbers have no exponent part."""
    digits = str(mantissa)
    if exponent >= 0:
        return digits + "0" * exponent
    digits = digits.rjust(1 - exponent, "0")
    return f"{digits[:exponent]}.{digits[exponent:]}"


# Magnitudes from 1e-320 to 9.9e306, with a share near 1 so that inputs also
# reach the arithmetic past the range checks.
NUMBERS = st.builds(
    _plain, st.integers(1, 99), st.one_of(st.integers(-3, 2), st.integers(-320, 305))
)
SIGNED = st.builds(str.__add__, st.sampled_from(["", "-"]), NUMBERS)
BASIS = {
    "all": ("", "e1", "e2", "e3", "e12", "e13", "e23", "e123"),
    "vector": ("", "e1", "e2", "e3"),  # real + vector part lies in the cone
    "bivector": ("", "e12", "e13", "e23"),  # and so does real + bivector part
}


@st.composite
def terms(draw, basis: str = "all", star: bool = True) -> str:
    """1 to 4 terms, each led by its sign: `` - 5e1 + 0.25*e23``."""
    text = ""
    for token in draw(st.lists(st.sampled_from(BASIS[basis]), min_size=1, max_size=4)):
        sign = draw(st.sampled_from("+-"))
        glue = draw(st.sampled_from(["", "*"])) if star and token else ""
        text += f" {sign} {draw(NUMBERS)}{glue}{token}"
    return text


def elements(basis: str = "all") -> st.SearchStrategy:
    return terms(basis).map(lambda text: text.removeprefix(" + ").strip())


POSITIONAL = st.lists(SIGNED, min_size=8, max_size=8).map(",".join)
ELEMENTS = st.one_of(elements(), POSITIONAL)
CONE_ELEMENTS = st.one_of(elements("vector"), elements("bivector"), ELEMENTS)


@st.composite
def factored(draw, sizes=st.integers(1, 8)) -> str:
    scale = draw(st.sampled_from(["", "{}*", "{}/{}*"])).format(draw(NUMBERS), draw(NUMBERS))
    # a factor's terms take no '*': the grammar reads one as nonlinear
    return scale + "*".join(f"(x{draw(terms(star=False))})" for _ in range(draw(sizes)))


POLYS = st.one_of(
    st.lists(elements(), min_size=1, max_size=8).map(lambda cs: f"coeffs: [{', '.join(cs)}]"),
    factored(),
)


def _option(name: str, values: st.SearchStrategy) -> st.SearchStrategy:
    """``--name value`` or ``--name=value``; a value starting with '-' needs the second."""
    return values.flatmap(lambda v: st.sampled_from([(name, v), (f"{name}={v}",)]))


def _optional(name: str, values: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.just(()), _option(name, values))


def _positional(values: st.SearchStrategy) -> st.SearchStrategy:
    """The value, or ``-- value`` so that a leading '-' is not read as an option."""
    return values.flatmap(lambda v: st.sampled_from([(v,), ("--", v)]))


COMMANDS = {
    "split": _positional(ELEMENTS),
    "cone-check": _positional(CONE_ELEMENTS),
    "eval": st.tuples(_option("--poly", POLYS), _option("--at", ELEMENTS)),
    "star": st.tuples(
        _option("--left", POLYS), _option("--right", POLYS), _optional("--at", ELEMENTS)
    ),
    "roots": _option("--factored", factored(st.one_of(st.just(2), st.integers(1, 8)))),
    "mult": st.tuples(
        _option("--factored", factored()),
        _option("--sphere", st.builds("{},{}".format, SIGNED, NUMBERS)),
    ),
    "det": _option(
        "--matrix",
        st.lists(elements(), min_size=4, max_size=4).map(
            lambda e: f"[[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]]"
        ),
    ),
    "cauchy-verify": st.tuples(
        _option("--poly", POLYS),
        _option("--at", CONE_ELEMENTS),
        _option("--radius", NUMBERS),
        _optional("--center", SIGNED),
        _optional("--nodes", st.integers(1, 512).map(str)),
    ),
    "dbar-check": st.tuples(
        _option("--poly", POLYS), _option("--at", CONE_ELEMENTS), _optional("--fd-step", NUMBERS)
    ),
    "kernel": st.tuples(_option("--s", CONE_ELEMENTS), _option("--x", CONE_ELEMENTS)),
}


def _flatten(parts) -> list[str]:
    if isinstance(parts, str):
        return [parts]
    return [word for part in parts for word in _flatten(part)]


@st.composite
def argvs(draw) -> tuple[list[str], str]:
    """One invocation of a random subcommand, and its output mode."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    mode = draw(st.sampled_from(["pretty", "records"]))
    words = (
        command,
        draw(_option("--output", st.just(mode))),
        draw(_optional("--tol", NUMBERS)),
        draw(COMMANDS[command]),  # last, for a positional after '--'
    )
    return _flatten(words), mode


def _finite(text: str) -> float:
    """``json.loads`` hook for every non-integer number, NaN and Infinity included."""
    value = float(text)
    if not math.isfinite(value):
        raise AssertionError(f"record holds {text}")
    return value


def test_exit_contract_strategy_covers_every_subcommand():
    (choices,) = re.findall(r"\{([^}]*)\}", cli._build_parser().format_usage())
    assert sorted(COMMANDS) == sorted(choices.split(","))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argvs())
def test_random_argv_keeps_the_exit_contract(invocation):
    """Exit 0, 1 or 2 and no traceback; exit 1 names its error class; at exit 0
    every record is JSON of finite numbers and pretty text has no nan or inf."""
    argv, mode = invocation
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert re.match(r"error: [A-Za-z]+: ", err.getvalue()), (argv, err.getvalue())
    if code != 0:
        return
    if mode == "records":
        for line in out.getvalue().splitlines():
            json.loads(line, parse_float=_finite, parse_constant=_finite)
    else:
        assert not re.search(r"\b(nan|inf)\b", out.getvalue(), re.IGNORECASE), (argv, out.getvalue())
