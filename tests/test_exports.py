"""The package's export list names only what the package defines, importing
the package loads no module that only tests and benchmarks read, importing
the CLI loads no `subprocess`, each module reads every name it imports, and
each private name is read and kept to its module.  IN has no AST node of
its own."""

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


def _loaded_after(statement: str, modules: tuple[str, ...]) -> list[str]:
    """Which of `modules` a fresh interpreter has loaded after `statement`,
    so that modules other tests imported do not count."""
    code = f"import sys; {statement}; print(sorted(set({modules!r}) & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sqldiagram.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return ast.literal_eval(out)


def test_import_loads_no_test_support_module():
    assert _loaded_after("import sqldiagram", (
        "sqldiagram.evaluate", "sqldiagram.corpus", "sqldiagram.fixtures")) == []


def test_import_of_the_cli_loads_no_subprocess():
    # Only `viz --render` starts a process, so only it imports subprocess.
    assert _loaded_after("import sqldiagram.cli", ("subprocess",)) == []


def _reads(tree: ast.AST) -> set[str]:
    """The names a module loads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def _defines(tree: ast.Module):
    """The names a module defines at its top level, and its method names."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            yield statement.name
        if isinstance(statement, ast.ClassDef):
            yield from (m.name for m in statement.body if isinstance(m, ast.FunctionDef))
        elif isinstance(statement, ast.Assign):
            yield from (n.id for n in ast.walk(statement)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))


def test_every_import_and_private_name_is_read():
    """A deletion leaves no import and no private name behind unread.
    `__init__.py` imports only to re-export, and Python calls the dunders."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    unread = []
    for name, tree in trees.items():
        if name != "__init__.py":
            imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                       or isinstance(node, ast.ImportFrom) and node.module != "__future__"]
            bound = {alias.asname or alias.name for node in imports for alias in node.names}
            unread += [(name, imported) for imported in sorted(bound - _reads(tree))]
    read = set().union(*map(_reads, trees.values()))
    unread += [(name, private) for name, tree in trees.items() for private in _defines(tree)
               if private.startswith("_") and not private.endswith("__") and private not in read]
    assert unread == []


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
