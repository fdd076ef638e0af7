"""Committed mutants: one-line faults that the tier-1 tests must catch.

Each entry names a file, one exact line of it (leading blanks aside, found
exactly once), its replacement and the reason the change is a fault.  The
script copies the sources and tests to a temporary directory, applies each
mutant alone, runs tier-1 there with -x and prints killed or survived with
the time.  A mutant listed as equivalent changes no output; its reason says
why, and its survival is expected.  Any other survivor, a listed equivalent
that is killed (its mark is stale), or an entry whose line is not found
exactly once, makes the script exit 1; tier-1 checks the last on its own
(tests/test_mutants.py).

    python tests/mutants.py    # about 11 minutes on a 2-vCPU machine

It is not part of tier-1: it runs tier-1 once for each mutant.  A change
that tries a new mutant adds it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "bench", "pyproject.toml", "README.md")  # all tier-1 reads
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors",
         # in a mutated copy one anchored line is already replaced, so this fails
         "--deselect", "tests/test_mutants.py::test_every_mutant_line_is_found_once"]
TIMEOUT_S = 600  # a mutant that hangs tier-1 counts as killed


class Mutant(NamedTuple):
    file: str
    line: str
    replacement: str
    reason: str
    equivalent: bool = False


SCOPES = "src/sqldiagram/scopes.py"
MUTANTS = [
    # the diagram and its DOT
    Mutant("src/sqldiagram/dot.py",
           'port.setdefault((box.alias, row.attribute), f"t_{box.alias}:p_{i}")',
           'port[(box.alias, row.attribute)] = f"t_{box.alias}:p_{i}"',
           "edges attach to the last of two rows of one attribute, not the first"),
    Mutant("src/sqldiagram/diagram.py",
           "swap = (lhs.alias, lhs.attribute) > (rhs.alias, rhs.attribute)",
           "swap = (lhs.alias, lhs.attribute) >= (rhs.alias, rhs.attribute)",
           "a self-comparison swaps its equal ends, so `A.x < A.x` is drawn as `>`"),
    Mutant("src/sqldiagram/diagram.py",
           "lhs, rhs, op = rhs, lhs, FLIPPED_OP[op]",
           "lhs, rhs, op = rhs, lhs, op",
           "an edge whose endpoints swap keeps its operator unmirrored"),
    Mutant("src/sqldiagram/logic.py",
           "norm = sorted({p.normalize() for p in predicates}, key=Predicate.sort_key)",
           "norm = sorted(set(predicates), key=Predicate.sort_key)",
           "join operands keep their written order, so a respelling changes the tree"),
    Mutant("src/sqldiagram/logic.py",
           "kids = tuple(sorted(children, key=LtNode.sort_key))",
           "kids = tuple(children)",
           "subqueries keep their written order, so a respelling changes the tree"),
    # lt_equal's subtree codes
    Mutant("src/sqldiagram/logic.py",
           "shapes.append(forward if forward <= mirror else mirror)",
           "shapes.append(forward)",
           "a join's shape keeps its stored operand order, which a relabelling can flip"),
    Mutant("src/sqldiagram/logic.py",
           "shapes.sort()",
           "pass",
           "a code lists its predicate shapes in stored order, which a relabelling can change"),
    Mutant("src/sqldiagram/logic.py",
           "kids = sorted([child[0] for child in children])",
           "kids = [child[0] for child in children]",
           "a code lists its children's codes in stored order"),
    Mutant("src/sqldiagram/logic.py",
           "lhs, rhs = depth - declared(p.lhs.alias, undeclared), p.rhs",
           "lhs, rhs = depth - scope[p.lhs.alias], p.rhs",
           "an alias that no enclosing block declares raises KeyError"),
    Mutant("src/sqldiagram/logic.py",
           "return pair_nodes(x, y) if x[0] == y[0] else ()",
           "return pair_nodes(x, y)",
           "two children of different code are searched, so a pairing that no relabelling "
           "completes tries the alike joins' orders below it (counted in label pairings)"),
    Mutant("src/sqldiagram/logic.py",
           "return pair_nodes(x, y) if x[0] == y[0] else ()",
           "return pair_nodes(x, y) if x[1].quantifier is y[1].quantifier "
           "and len(x[2]) == len(y[2]) else ()",
           "children pair on their quantifier and child count alone, the test that codes "
           "replaced, so children of different code are searched (counted in label "
           "pairings)"),
    Mutant("src/sqldiagram/logic.py",
           "if coded_a[0] != coded_b[0]:",
           "if False:",
           "roots of different code are searched, so the search pairs labels where the "
           "codes already answer, and alike siblings cost factorial time again"),
    # diagram_isomorphic's shape check
    Mutant("src/sqldiagram/diagram.py",
           "if (shape_a, len(a.edges), len(a.select_box)) != (shape_b, len(b.edges), "
           "len(b.select_box)):",
           "if (shape_a, len(a.edges), len(a.select_box)) != (shape_a, len(b.edges), "
           "len(b.select_box)):",
           "diagrams of different shape are searched, so alike siblings cost factorial "
           "time again"),
    Mutant("src/sqldiagram/diagram.py",
           "key.append((g.depth, g.quantifier._value_, counts, selections))",
           "key.append((g.depth, g.quantifier._value_, counts))",
           "the shape leaves out the selection rows, so a changed selection operator "
           "costs factorial time in alike siblings again"),
    # the one-rule walks
    Mutant("src/sqldiagram/diagram.py",
           "for target in sorted(out_edges[gid], key=order.__getitem__, reverse=True)]",
           "for target in sorted(out_edges[gid], key=order.__getitem__)]",
           "the reading order follows a group's arrows last target first"),
    Mutant("src/sqldiagram/diagram.py",
           "elif visited:  # every start after the root",
           "else:",
           "the reading order restarts at the root as well"),
    Mutant("src/sqldiagram/logic.py",
           "own = [*leading, *map(Predicate.text, node.predicates)]",
           "own = list(map(Predicate.text, node.predicates))",
           "the TRC text loses the select bindings"),
    # isomorphism of diagrams with several roots
    Mutant("src/sqldiagram/diagram.py",
           "roots_a, roots_b = kids_a.get(None, []), kids_b.get(None, [])",
           "roots_a, roots_b = kids_a.get(None, [])[:1], kids_b.get(None, [])[:1]",
           "diagram_isomorphic pairs only the first roots"),
    Mutant("src/sqldiagram/diagram.py",
           'raise InvalidDiagramError(f"group {g.id} has no root above it")',
           "pass",
           "diagram_isomorphic accepts a group no root reaches"),
    # the JSON loader's named tuples and the isomorphism's edge comparison
    Mutant("src/sqldiagram/diagram.py",
           "boxes.append(_new(TableBox, (alias, table_name, tuple(rows))))",
           "boxes.append(_new(TableBox, (table_name, alias, tuple(rows))))",
           "the loader puts a box's table name in its alias field and the alias in its "
           "table name field"),
    Mutant("src/sqldiagram/diagram.py",
           'fields(e, f"edges[{i}]", "from", "to", "directed", "label")',
           'fields(e, f"edges[{i}]", "from", "to", "directed")',
           "an edge without a label prints Python's text, 'label', not its JSON path"),
    # the builder's positional values and the group graph's sorted lists
    Mutant("src/sqldiagram/diagram.py",
           "tuple([_new(TableBox, (alias, table, rows_for(alias)))",
           "tuple([_new(TableBox, (table, alias, rows_for(alias)))",
           "build_diagram puts a box's table name in its alias field and the alias in its "
           "table name field"),
    Mutant("src/sqldiagram/diagram.py",
           "return _new(Edge, ((lhs.alias, lhs.attribute), (rhs.alias, rhs.attribute),",
           "return _new(Edge, ((rhs.alias, rhs.attribute), (lhs.alias, lhs.attribute),",
           "orient_inequality puts each edge's target in its src field and its source in dst"),
    Mutant("src/sqldiagram/diagram.py",
           "_new(TableGroup, (gid, node.quantifier, depth, parent,",
           "_new(TableGroup, (gid, node.quantifier, parent, depth,",
           "build_diagram puts a group's parent in its depth field and its depth in parent"),
    Mutant("src/sqldiagram/recovery.py",
           "ends.sort()",
           "pass",
           "a group's successors and predecessors keep the edge set's iteration order, so "
           "the oracle's depth-first order depends on the hash seed"),
    Mutant("src/sqldiagram/diagram.py",
           "edges_b = sorted(canon(*e) for e in b.edges)",
           "edges_b = [canon(*e) for e in b.edges]",
           "diagram_isomorphic compares against the second diagram's edges in stored order"),
    # roundtrip's checks
    Mutant("src/sqldiagram/cli.py",
           "if oracle != [recovered]:",
           "if len(oracle) != 1:",
           "roundtrip accepts an oracle survivor that is not the recovered structure"),
    Mutant("src/sqldiagram/cli.py",
           "if oracle != [recovered]:",
           "if len(oracle) > 1:",
           "roundtrip accepts no survivor at all (first tried on `len(oracle) != 1`)"),
    Mutant("src/sqldiagram/cli.py",
           "if recovered.depths[group.id] != group.depth:",
           "if abs(recovered.depths[group.id] - group.depth) > 1:",
           "the structure check forgives a group one level off"),
    # the parser's token readers
    Mutant("src/sqldiagram/parser.py",
           "if tok.kind != kind or (text is not None and tok.text != text):",
           'if tok.kind != "EOF" and (tok.kind != kind '
           'or (text is not None and tok.text != text)):',
           "_match takes the EOF token for any kind"),
    Mutant("src/sqldiagram/parser.py",
           "raise SqlSyntaxError(f\"unexpected {tok.text or 'end of input'!r}\", "
           "tok.line, tok.column,",
           "raise SqlSyntaxError(f\"unexpected {tok.text or 'end of input'!r}\", "
           "*((self._tokens[self._pos - 1].line, self._tokens[self._pos - 1].column) "
           "if tok.kind == \"EOF\" else (tok.line, tok.column)),",
           "_expect reports a failure at the end of input at the previous token"),
    # the scanner's running offset and the column rule's reads ahead
    Mutant("src/sqldiagram/parser.py",
           "offset += len(text) + len(blanks)",
           "offset += len(text)",
           "the scanner's running offset skips the blanks' length, so every column after "
           "a blank is too small"),
    Mutant("src/sqldiagram/parser.py",
           "attr = tokens[pos + 2]",
           "attr = tokens[pos + 1]",
           "_parse_column_ref reads the attribute at pos + 1, the dot"),
    # copy-on-write scope resolution and forall rewrite
    Mutant(SCOPES,
           "return ref if alias == ref.alias else ColumnRef(alias, ref.attribute, ref.line, "
           "ref.column)",
           "return ColumnRef(alias, ref.attribute, ref.line, ref.column)",
           "every ColumnRef is rebuilt, not returned itself"),
    Mutant(SCOPES,
           "if lhs is pred.lhs and rhs is pred.rhs:",
           "if False:",
           "every Comparison is rebuilt"),
    Mutant(SCOPES,
           "if column is pred.column and subquery is pred.subquery:",
           "if False:",
           "every IN, ANY and ALL predicate is rebuilt"),
    Mutant(SCOPES,
           "return pred if subquery is pred.subquery else Exists(pred.negated, subquery)",
           "return Exists(pred.negated, subquery)",
           "every EXISTS predicate is rebuilt"),
    Mutant(SCOPES,
           "if from_list is block.from_list and all(",
           "if False and all(",
           "every block is rebuilt"),
    Mutant(SCOPES,
           "if any(alias != final for alias, final in local.items()):",
           "if True:",
           "every from_list is rebuilt"),
    Mutant(SCOPES,
           "from_list = tuple(TableRef(ref.table_name, local[ref.alias], ref.line, ref.column)",
           "from_list = tuple(TableRef(ref.table_name, local[ref.alias], 0, 0)",
           "a renamed TableRef loses its position"),
    Mutant(SCOPES,
           "return ref if alias == ref.alias else ColumnRef(alias, ref.attribute, ref.line, "
           "ref.column)",
           "return ref if alias == ref.alias else ColumnRef(alias, ref.attribute, 0, 0)",
           "a renamed ColumnRef loses its position"),
    Mutant("src/sqldiagram/logic.py",
           "if all(map(is_, children, node.children)):",
           "if False:",
           "the forall rewrite rebuilds every node"),
    # recovery's checks and oracle
    Mutant("src/sqldiagram/recovery.py",
           "if not all(arrow_points(depths[s], depths[d]) for s, d in g.edges):",
           "if not all(arrow_points(depths[s], depths[d]) or depths[s] == depths[d] "
           "for s, d in g.edges):",
           "recovery's arrow rule lets an edge join two groups of one depth, so a "
           "self-loop on the root passes recovery; the oracle rejects that loop when it "
           "labels the root, so only recovery is reached"),
    Mutant("src/sqldiagram/recovery.py",
           "if d > (MAX_DEPTH if len(tried) > 1 else 0):",
           "if d > MAX_DEPTH:",
           "the oracle lets the root take every depth, so it keeps labelings that put "
           "the root below depth 0"),
    Mutant("src/sqldiagram/recovery.py",
           "and all(arrow_points(depths[s], d) for s in g._pred.get(node, ()) if s in depths)",
           "and True",
           "the oracle checks the arrow rule only on edges out of the group it labels, "
           "so an edge into it from a group labeled earlier is never checked"),
    Mutant("src/sqldiagram/recovery.py",
           "up = sorted(set.intersection(*joined)) if joined else []",
           "up = sorted(set.union(*joined)) if joined else []",
           "the oracle also takes a parent that some child does not join, so a labeling "
           "its parent check should drop is completed and reaches the connected-subquery "
           "check (counted in that check's calls)"),
    Mutant("src/sqldiagram/recovery.py",
           "return up[0] if len(up) == 1 else None",
           "return up[0] if up else None",
           "a group with two candidate parents takes the first, so the oracle prunes "
           "nothing there and checks every later group's parent before the final scope "
           "check rejects the labeling (counted in `_parent` calls)"),
]


def apply(text: str, mutant: Mutant) -> str:
    lines = text.splitlines(keepends=True)
    found = [i for i, line in enumerate(lines) if line.strip() == mutant.line]
    if len(found) != 1:
        raise LookupError(f"line found {len(found)} times: {mutant.line}")
    (i,) = found
    indent = lines[i][:len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = indent + mutant.replacement + "\n"
    return "".join(lines)


def run_tier1(copy: Path) -> str | None:
    """None when tier-1 passes in `copy`, else the test that failed first."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"a test that ran over {TIMEOUT_S} s"
    if done.returncode == 0:
        return None
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit status {done.returncode}"


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        for mutant in MUTANTS:
            target = copy / mutant.file
            original = target.read_text(encoding="utf-8")
            try:
                target.write_text(apply(original, mutant), encoding="utf-8")
            except LookupError as exc:
                print(f"  stale   {mutant.file}: {mutant.reason}\n          {exc}")
                failures += 1
                continue
            began = time.perf_counter()
            try:
                killer = run_tier1(copy)
            finally:
                target.write_text(original, encoding="utf-8")
            if killer is None:
                verdict = "survived" + (" (listed as equivalent)" if mutant.equivalent else "")
                failures += not mutant.equivalent
            else:
                verdict = f"killed by {killer}" + (
                    ", but listed as equivalent" if mutant.equivalent else "")
                failures += mutant.equivalent
            print(f"{time.perf_counter() - began:6.1f} s  {mutant.file}: {mutant.reason}\n"
                  f"          {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {failures} unexpected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
