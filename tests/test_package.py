"""The package's export list and import footprint."""

import os
import subprocess
import sys

import qcone3


def test_all_names_resolve_and_are_unique():
    assert len(qcone3.__all__) == len(set(qcone3.__all__))
    for name in qcone3.__all__:
        assert hasattr(qcone3, name), name


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from qcone3 import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qcone3.__all__)


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
