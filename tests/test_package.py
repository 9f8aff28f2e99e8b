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
