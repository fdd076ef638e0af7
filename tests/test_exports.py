"""The package's export list names only what the package defines, importing
the package loads no module that only tests and benchmarks read, and each
module keeps its private names to itself.  IN has no AST node of its own."""

import ast
import importlib.util
import os
import subprocess
import sys
import typing
from pathlib import Path

import sqldiagram
from sqldiagram import sqlast

PACKAGE = Path(sqldiagram.__file__).parent


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


def test_no_module_imports_a_private_name_of_a_sibling():
    private = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("sqldiagram")):
                private.update((path.name, alias.name) for alias in node.names
                               if alias.name.startswith("_"))
    # diagram_isomorphic still searches with lt_equal's renaming engine.
    assert private == {("diagram.py", "_Relabeling")}


def test_sql_printer_lives_with_the_ast():
    assert importlib.util.find_spec("sqldiagram.printer") is None
    assert sqldiagram.print_sql.__module__ == "sqldiagram.sqlast"


def test_in_has_no_node_of_its_own():
    # x IN (S) parses to the node of x = ANY (S)
    assert typing.get_args(sqlast.PredicateAst) == (
        sqlast.Comparison, sqlast.Exists, sqlast.QuantifiedComparison)
