"""Golden CLI corpus: every invocation's exit status, stdout and stderr.

``cli_golden.json`` holds the outputs of the invocations below in both
output modes.  Stderr, usage errors and help included, must match byte for
byte, as must the stdout of commands whose arithmetic involves no polynomial
product (``split``, ``cone-check``, ``det``, ``kernel``, ``mult``, and
``eval``, ``cauchy-verify``, ``dbar-check`` on a ``coeffs:`` list).  The
rest (``star``, ``roots`` and factored polynomials) keep their exit status,
record keys and text shape, and every number agrees within
``1e-14 * (1 + largest magnitude in that line or record)``; pretty elements
are compared after re-parsing.

Re-record (only when an output change is intended) every case, or only the
cases whose argv starts with one of the given prefixes, each written as
shell words; the other entries stay byte for byte::

    PYTHONPATH=src python tests/test_cli_golden.py --record
    PYTHONPATH=src python tests/test_cli_golden.py --record "split e1" "roots --factored"
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import sys

import pytest

from qcone3.cli import run
from qcone3.errors import ParseError
from qcone3.grammar import parse_element

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")
REL_TOL = 1e-14

CAUCHY = ("cauchy-verify", "--poly", "coeffs: [0, 0, 1]", "--at", "0.5e1")
NON_DYADIC_LEFT = "coeffs: [0.1 + 0.3e1 - 0.7e23, 1.3 + 0.2e123, 0.7e2]"
NON_DYADIC_RIGHT = "coeffs: [0.3e12 - 0.1, 1.1e13, 0.9 - 0.6e3]"
NON_DYADIC_FACTORED = "0.3*(x - 0.1e1 - 0.7e23)*(x + 0.3e2 - 0.2e13 + 0.9)"

INVOCATIONS = [
    # tests/test_cli.py
    ("split", "e1"),
    ("cone-check", "e123"),
    ("cone-check", "1 + 2e1 - e2 + e3"),
    ("det", "--matrix", "[[e1, e2+e23],[-1, e2]]"),
    ("split", "2e23 + z"),
    ("kernel", "--s", "e1", "--x", "e1"),
    ("cone-check", "bogus!"),
    ("eval", "--poly", "(x - e12)*(x - e23)", "--at", "e12"),
    ("star", "--left", "coeffs: [-e12, 1]", "--right", "coeffs: [-e23, 1]"),
    ("roots", "--factored", "(x - 2e23)*(x + e23 - 2e13 - e1 + 2e2)"),
    ("roots", "--factored", "(x - e12)*(x - e23)"),
    ("roots", "--factored", "(x - e1)"),
    ("roots", "--factored", "(x - 2*e1)*(x - e2)"),
    ("roots", "--factored", "(x 2)*(x - e2)"),
    ("mult", "--factored", "(x - e1)*(x - e23)", "--sphere", "0,1"),
    (*CAUCHY, "--radius", "2", "--nodes", "256"),
    ("dbar-check", "--poly", "coeffs: [0, 0, 0, 1]", "--at", "0.4 + e1", "--fd-step", "1e-4"),
    ("kernel", "--s", "2", "--x", "e1"),
    ("not-a-command",),
    ("split", "1,0,0,nan,0,0,0,0"),
    ("split", "1,0,0,inf,0,0,0,0"),
    ("split", "1,0,0,-inf,0,0,0,0"),
    (*CAUCHY, "--radius", "-1"),
    (*CAUCHY, "--radius", "2", "--nodes", "8"),
    (*CAUCHY, "--radius", "2", "--nodes", "100000000"),
    # README.md (the placeholders P and EL filled in)
    ("star", "--left", "coeffs: [-e12, 1]", "--right", "coeffs: [-e23, 1]", "--at", "0.5 + e1"),
    ("cauchy-verify", "--poly", "coeffs: [1, -e1, e12 + e23]", "--center", "0",
     "--radius", "2", "--nodes", "512", "--at", "0.3 + 0.4e1"),
    ("dbar-check", "--poly", "coeffs: [1, -e1, e12 + e23]", "--at", "0.4 + e1"),
    # non-dyadic inputs, where rounding can differ between equal formulas
    ("star", "--left", NON_DYADIC_LEFT, "--right", NON_DYADIC_RIGHT),
    ("star", "--left", NON_DYADIC_LEFT, "--right", NON_DYADIC_RIGHT, "--at", "0.3 + 0.4e23"),
    ("roots", "--factored", NON_DYADIC_FACTORED),
    ("roots", "--factored", "(x - 0.3e1)*(x - 0.3e23 + 0.1)"),
    ("eval", "--poly", NON_DYADIC_FACTORED, "--at", "0.3 + 0.4e23"),
    ("cauchy-verify", "--poly", NON_DYADIC_FACTORED, "--radius", "2", "--nodes", "64",
     "--at", "0.3 + 0.4e23"),
    ("mult", "--factored", "(x - 0.3e1)*(x + 0.3e1)*(x - 0.3e23)", "--sphere", "0,0.3"),
    # tiny and huge magnitudes in pretty output
    ("split", "0.00000000000000000001e1"),
    ("cauchy-verify", "--poly", "coeffs: [0.1e1, 0.3e12, 0.2]", "--radius", "2",
     "--at", "0.3 + 0.4e23", "--nodes", "64"),
    ("split", "123456789012345678901234567890 + 0.5e2"),
    # the command line grammar: usage errors, values and positionals starting with '-', help
    ("split", "e1", "--bogus", "1"),
    ("split", "e1", "--out", "records"),
    ("eval", "--poly", "coeffs: [1, e1]"),
    ("cone-check", "e1", "--tol", "nan"),
    ("eval", "--poly", "coeffs: [1, e1]", "--at", "-e1"),
    ("split", "-e1"),
    ("--help",),
]

CASES = [(*argv, "--output", mode) for argv in INVOCATIONS for mode in ("pretty", "records")]

POLY_COMMANDS = {"eval", "cauchy-verify", "dbar-check"}


def invoke(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def is_exact(argv) -> bool:
    """True when the command's output must not change by a single byte."""
    if argv[0] in POLY_COMMANDS:
        return argv[argv.index("--poly") + 1].lstrip().startswith("coeffs")
    return argv[0] not in ("star", "roots")


_SPHERE = re.compile(r"sphere\(center (\S+), radius (\S+)\)")
_NODES = re.compile(r"(\S+) at (\d+ nodes)")


def pretty_fields(line: str) -> tuple[list[str], list[float]]:
    """A pretty line as (words, numbers): elements are re-parsed."""
    label, sep, rest = line.partition(": ")
    if not sep:
        label, rest = "", line
    words, numbers = [label], []
    for chunk in re.split(r", | \| |[\[\]()]", _SPHERE.sub(r"sphere \1 \2", rest)):
        chunk = chunk.strip()
        head, _, tail = chunk.partition(" ")
        nodes = _NODES.fullmatch(chunk)
        if not chunk:
            continue
        if head in ("sphere", "point"):
            words.append(head)
            numbers.extend(float(t) for t in tail.split())
        elif nodes:
            words.append(nodes[2])
            numbers.append(float(nodes[1]))
        else:
            try:
                numbers.extend(parse_element(chunk).coeffs)
                words.append("element")
            except ParseError:
                numbers.append(float(chunk))
                words.append("number")
    return words, numbers


def _numbers(value) -> list[float]:
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    return []


def _close(got, want, tol: float) -> bool:
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_close(got[k], want[k], tol) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w, tol) for g, w in zip(got, want))
        )
    if _numbers(want):
        return bool(_numbers(got)) and abs(got - want) <= tol
    return got == want


def lines_close(got: str, want: str, records: bool) -> bool:
    if records:
        got_v, want_v = json.loads(got), json.loads(want)
    else:
        (got_w, got_v), (want_w, want_v) = pretty_fields(got), pretty_fields(want)
        if got_w != want_w:
            return False
    tol = REL_TOL * (1.0 + max(map(abs, _numbers(want_v)), default=0.0))
    return _close(got_v, want_v, tol)


def _load(path: str = CORPUS) -> dict:
    with open(path) as fh:
        return {tuple(case["argv"]): case for case in json.load(fh)}


def record(filters: list[str], path: str = CORPUS) -> None:
    """Rewrite the corpus, invoking the cases that match a filter (all cases
    when there is none) and any case the corpus lacks; every other entry is
    written back as it was loaded.  The kept entries are invoked too, and
    the argv of each one whose stored output differs from what the code
    prints now is printed, so a partial re-record shows drift instead of
    hiding it."""
    prefixes = [shlex.split(f) for f in filters]
    kept = _load(path) if prefixes else {}

    def fresh(argv) -> bool:
        return argv not in kept or any(list(argv[: len(p)]) == p for p in prefixes)

    cases = []
    for argv in CASES:
        case = invoke(argv)
        if not fresh(argv):
            if case != kept[argv]:
                print("kept, differs from the code now:", shlex.join(argv))
            case = kept[argv]
        cases.append(case)
    with open(path, "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")


def test_corpus_covers_every_case():
    assert set(_load()) == set(CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_matches_golden(argv):
    want = _load()[argv]
    got = invoke(argv)
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    if is_exact(argv):
        assert got["stdout"] == want["stdout"]
        return
    got_lines, want_lines = got["stdout"].splitlines(), want["stdout"].splitlines()
    assert len(got_lines) == len(want_lines)
    records = argv[-1] == "records"
    for g, w in zip(got_lines, want_lines):
        assert lines_close(g, w, records), (g, w)


def test_records_writer_matches_json_dumps_on_the_corpus(monkeypatch):
    from qcone3 import cli

    fields_seen = []
    record = cli._Output.record

    def keep(self, **fields):
        fields_seen.append(fields)
        record(self, **fields)

    monkeypatch.setattr(cli._Output, "record", keep)
    for argv in CASES:
        if argv[-1] == "records":
            invoke(argv)
    corpus_records = [
        line
        for case in _load().values()
        if case["argv"][-1] == "records"
        for line in case["stdout"].splitlines()
        if line.startswith("{")
    ]
    assert len(fields_seen) == len(corpus_records)
    for fields in fields_seen:
        assert cli._json(fields) == json.dumps(fields)


def test_pretty_fields_reparse_elements():
    words, numbers = pretty_fields("zero pair: (sphere(center 0, radius 2) | 0.5 - e23)")
    assert words == ["zero pair", "sphere", "element"]
    assert numbers == [0.0, 2.0, 0.5, 0, 0, 0, 0, 0, -1.0, 0]
    assert lines_close("coeffs: [0.1e1, 1]", "coeffs: [0.1e1 + 0.000000000000001e2, 1]", False)
    assert not lines_close("coeffs: [0.1e1, 1]", "coeffs: [0.2e1, 1]", False)
    assert not lines_close('{"a": [1.0]}', '{"b": [1.0]}', True)


def test_record_rewrites_only_the_filtered_cases(tmp_path, capsys):
    with open(CORPUS) as fh:
        original = fh.read()
    path = tmp_path / "corpus.json"
    path.write_text(original)
    record(["no-such-command"], str(path))
    assert path.read_text() == original
    assert capsys.readouterr().out == ""
    stale = json.loads(original)
    for case in stale[:3]:
        case["stdout"] = "stale"
    path.write_text(json.dumps(stale, indent=1) + "\n")
    record(["split e1"], str(path))
    want = [invoke(c["argv"]) if c["argv"][:2] == ["split", "e1"] else c for c in stale]
    assert path.read_text() == json.dumps(want, indent=1) + "\n"
    # The first three entries are split e1 in both modes, then cone-check
    # e123: only the kept stale one is reported.
    assert [c["argv"][:2] for c in stale[:3]] == [["split", "e1"], ["split", "e1"], ["cone-check", "e123"]]
    drift = "kept, differs from the code now: cone-check e123 --output pretty\n"
    assert capsys.readouterr().out == drift


if __name__ == "__main__" and sys.argv[1:2] == ["--record"]:
    record(sys.argv[2:])
