"""The package's export list names only what the package defines, and importing
the package loads no module that only tests and benchmarks read."""

import os
import subprocess
import sys

import sqldiagram


def test_every_export_resolves():
    missing = [name for name in sqldiagram.__all__ if not hasattr(sqldiagram, name)]
    assert missing == []


def test_no_export_repeats():
    assert len(set(sqldiagram.__all__)) == len(sqldiagram.__all__)


def test_import_loads_no_test_support_module():
    # A fresh interpreter, so that modules other tests imported do not count.
    code = ("import sys, sqldiagram; print(sorted(name for name in "
            "('sqldiagram.evaluate', 'sqldiagram.corpus', 'sqldiagram.fixtures') "
            "if name in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sqldiagram.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
