"""The package's export list and import footprint."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

import qcone3

SRC = os.path.dirname(os.path.dirname(qcone3.__file__))


def test_all_names_resolve_and_are_unique():
    assert len(qcone3.__all__) == len(set(qcone3.__all__))
    for name in qcone3.__all__:
        assert hasattr(qcone3, name), name


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from qcone3 import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qcone3.__all__)


def _defaulted_parameters(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults) :]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def test_every_defaulted_parameter_is_read():
    # An option the body never reads looks like a decision but changes nothing.
    unread = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(qcone3.__file__), "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {
                n.id
                for stmt in fn.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{os.path.basename(path)}:{fn.lineno} {fn.name}({name})"
                for name in _defaulted_parameters(fn)
                if name not in read
            ]
    assert unread == []


def test_import_loads_no_dataclasses_machinery():
    # ``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``: about 0.8 MB
    # and several ms of start-up that every CLI call would pay.
    code = "import sys, qcone3.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(qcone3.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_clifford3_stands_below_qsplit():
    # The element's product runs on the quaternion pair defined beside it, so
    # loading clifford3 alone (without the package __init__) must load no
    # other qcone3 module than errors.
    package_dir = os.path.dirname(qcone3.__file__)
    code = (
        "import sys, types\n"
        f"pkg = types.ModuleType('qcone3'); pkg.__path__ = [{package_dir!r}]\n"
        "sys.modules['qcone3'] = pkg\n"
        "import qcone3.clifford3\n"
        "print(sorted(m for m in sys.modules if m.startswith('qcone3.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['qcone3.clifford3', 'qcone3.errors']"


def _fresh(code: str, *argv: str) -> str:
    """Run ``code`` in a new interpreter importing this tree; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    code = "import sys, qcone3; print(sorted(m for m in sys.modules if m.startswith('qcone3.')))"
    assert _fresh(code).strip() == "[]"


def test_stem_loads_no_quadrature():
    # A polynomial's stem is bislice's Horner pass: stem reaches into no cauchy.
    code = "import sys, qcone3.stem; print(sorted(m[7:] for m in sys.modules if m.startswith('qcone3.')))"
    assert _fresh(code).strip() == "['bislice', 'clifford3', 'errors', 'qsplit', 'stem']"


def test_every_name_resolves_in_a_fresh_interpreter():
    code = (
        "import qcone3\n"
        "print([n for n in qcone3.__all__ if getattr(qcone3, n, None) is None])"
    )
    assert _fresh(code).strip() == "[]"


def test_dir_covers_all_before_any_access():
    code = "import json, qcone3; print(json.dumps(dir(qcone3)))"
    assert set(qcone3.__all__) <= set(json.loads(_fresh(code)))


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="module 'qcone3' has no attribute 'no_such_name'"):
        qcone3.no_such_name


# Runs one CLI call, then prints its exit status, the qcone3 submodules it
# loaded, whether it imported ``decimal``, which of argparse's modules
# (``argparse``, ``gettext``, ``locale``) it imported, and whether it imported
# ``json``.  It reads ``sys.modules`` before it imports ``json`` to print.
_CLI_CALL = (
    "import sys\n"
    "from qcone3 import cli\n"
    "code = cli.run(sys.argv[1:])\n"
    "loaded = sorted(m[7:] for m in sys.modules if m.startswith('qcone3.'))\n"
    "parsers = sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))\n"
    "found = [code, loaded, 'decimal' in sys.modules, parsers, 'json' in sys.modules]\n"
    "import json\n"
    "print(json.dumps(found))\n"
)


def _cli_call(*argv: str) -> tuple[int, list[str], bool, list[str]]:
    """Exit status, qcone3 submodules, decimal loaded, argparse's modules;
    asserts that the call loaded no ``json``."""
    *_, last = _fresh(_CLI_CALL, *argv).splitlines()
    *found, json_loaded = json.loads(last)
    assert not json_loaded
    return tuple(found)


_BASE = ["cli", "clifford3", "errors", "grammar"]
_POLY = "coeffs: [1, e1]"


_FOOTPRINTS = [
    (["split", "e1"], []),
    (["cone-check", "e1"], ["qsplit"]),
    (["eval", "--poly", _POLY, "--at", "e23"], ["bislice", "qsplit"]),
    (
        ["star", "--left", _POLY, "--right", "coeffs: [e2]", "--at", "0.5e1"],
        ["bislice", "qsplit"],
    ),
    (["roots", "--factored", "(x - e1)*(x - e23)"], ["bislice", "qsplit", "zeros"]),
    (
        ["mult", "--factored", "(x - e1)*(x - e23)", "--sphere", "0,1"],
        ["bislice", "qsplit", "zeros"],
    ),
    (["det", "--matrix", "[[1, e1], [e2, 2]]"], ["qdet"]),
    (
        ["cauchy-verify", "--poly", _POLY, "--radius", "2", "--at", "0.5e1"],
        ["bislice", "cauchy", "qsplit"],
    ),
    (["dbar-check", "--poly", _POLY, "--at", "0.5e1"], ["bislice", "qsplit"]),
    (["kernel", "--s", "e1", "--x", "0.5e1"], ["cauchy", "qsplit"]),
]


@pytest.mark.parametrize("mode", ["pretty", "records"])
@pytest.mark.parametrize(
    "argv, extra", _FOOTPRINTS, ids=[argv[0] for argv, _ in _FOOTPRINTS]
)
def test_each_subcommand_loads_only_its_modules(argv, extra, mode):
    # The sets README.md's import contract lists; no subcommand loads stem,
    # and none loads json, argparse or what argparse's messages import.
    code, loaded, _, parsers = _cli_call(*argv, "--output", mode)
    assert code == 0
    assert loaded == sorted(_BASE + extra)
    assert parsers == []


def test_decimal_loads_only_for_numbers_printed_with_an_exponent():
    assert _cli_call("split", "0.5e1") == (0, _BASE, False, [])
    assert _cli_call("split", "0.00000000000001e1") == (0, _BASE, True, [])
    # A constant 1e-14 e1 is its own value at every point, so the direct
    # value prints with an exponent whatever the quadrature's rounding:
    # pretty text needs decimal for it, records print no pretty text.
    cauchy = ["cauchy-verify", "--poly", "coeffs: [0.00000000000001e1]", "--radius", "2", "--at", "0.5e1"]
    modules = sorted(_BASE + ["bislice", "cauchy", "qsplit"])
    assert _cli_call(*cauchy) == (0, modules, True, [])
    assert _cli_call(*cauchy, "--output", "records") == (0, modules, False, [])
