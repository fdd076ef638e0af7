"""Seeded input generators for the benchmark workloads.

Trees are built only through the package's public API (random_logic_tree,
make_node, LogicTree and the value types they take); SQL text comes from
lt_to_sql and diagram JSON from build_diagram plus diagram_to_json.  The
same seed always yields byte-identical inputs.

The reference structure each generator hands out (`tree_truth`,
`sql_nesting`) is read straight off the generated tree or the SQL text, never
from the code under test.
"""

from __future__ import annotations

import random
import re

from sqldiagram.corpus import SCHEMA, random_logic_tree
from sqldiagram.logic import LogicTree, Predicate, Quantifier, make_node
from sqldiagram.sqlast import ColumnRef, Constant

_TABLES = sorted(SCHEMA)


# -- reference structure ------------------------------------------------------


def tree_truth(lt: LogicTree) -> dict[str, tuple[int, str | None]]:
    """alias -> (depth, first alias of the parent block), from the tree's own nodes."""
    truth: dict[str, tuple[int, str | None]] = {}

    def visit(node, depth, parent_alias):
        for alias, _ in node.tables:
            truth[alias] = (depth, parent_alias)
        for child in node.children:
            visit(child, depth + 1, min(alias for alias, _ in node.tables))

    visit(lt.root, 0, None)
    return truth


def count_blocks(lt: LogicTree) -> int:
    stack, blocks = [lt.root], 0
    while stack:
        node = stack.pop()
        blocks += 1
        stack.extend(node.children)
    return blocks


_SQL_TOKEN = re.compile(r"\s*(?:('[^']*')|([A-Za-z_][A-Za-z_0-9]*)|(\S))")


def sql_nesting(sql: str) -> dict[str, tuple[int, str | None]]:
    """alias -> (depth, first alias of the enclosing block), from the SQL text.

    A deliberately tiny scanner that knows nothing of the package's parser:
    every SELECT opens a block one level below the innermost open one, the
    parenthesis before it closes it, and the FROM list names its aliases.
    """
    words = [m.group(1) or m.group(2) or m.group(3) for m in _SQL_TOKEN.finditer(sql)]
    words.append("")
    blocks: list[tuple[int, int, list[str]]] = []  # (depth, parent index or -1, aliases)
    open_blocks: list[int] = []
    parens: list[bool] = []  # per open parenthesis: did a SELECT follow it?
    i = 0
    while words[i]:
        upper = words[i].upper()
        i += 1
        if upper == "SELECT":
            blocks.append((len(open_blocks), open_blocks[-1] if open_blocks else -1, []))
            open_blocks.append(len(blocks) - 1)
            if parens:
                parens[-1] = True
        elif upper == "(":
            parens.append(False)
        elif upper == ")":
            if parens.pop():
                open_blocks.pop()
        elif upper == "FROM":
            aliases = blocks[open_blocks[-1]][2]
            while True:
                table = words[i]
                i += 1
                if words[i].upper() == "AS":
                    i += 1
                alias = table
                if words[i][:1].isalpha() and words[i].upper() != "WHERE":
                    alias = words[i]
                    i += 1
                aliases.append(alias)
                if words[i] != ",":
                    break
                i += 1
    truth = {}
    for depth, parent, aliases in blocks:
        parent_alias = min(blocks[parent][2]) if parent >= 0 else None
        for alias in aliases:
            truth[alias] = (depth, parent_alias)
    return truth


# -- generated trees ----------------------------------------------------------


def exact_size_tree(rng: random.Random, groups: int) -> LogicTree:
    """A random_logic_tree with exactly `groups` blocks, drawn by rejection."""
    while True:
        lt = random_logic_tree(rng, max_nodes=groups)
        if count_blocks(lt) == groups:
            return lt


def _col(alias: str, attribute: str) -> ColumnRef:
    return ColumnRef(alias=alias, attribute=attribute)


def wide_tree(rng: random.Random, k: int) -> LogicTree:
    """A root with k NOT EXISTS children, each with two children of its own
    (3k + 1 groups).  Every block joins its parent directly."""
    root_table = rng.choice(_TABLES)
    root_attr = rng.choice(SCHEMA[root_table])
    children = []
    for i in range(k):
        alias, table = f"C{i}", rng.choice(_TABLES)
        attr = rng.choice(SCHEMA[table])
        grandchildren = []
        for j in range(2):
            g_alias, g_table = f"G{i}x{j}", rng.choice(_TABLES)
            g_preds = [Predicate(_col(g_alias, rng.choice(SCHEMA[g_table])),
                                 rng.choice(("=", "=", "<", ">=")), _col(alias, attr))]
            if rng.random() < 0.3:
                g_preds.append(Predicate(_col(g_alias, rng.choice(SCHEMA[g_table])), "=",
                                         Constant(kind="number", literal=str(rng.randint(0, 9)))))
            quantifier = rng.choice((Quantifier.EXISTS, Quantifier.NOT_EXISTS))
            grandchildren.append(make_node([(g_alias, g_table)], g_preds, quantifier))
        preds = [Predicate(_col(alias, attr), rng.choice(("=", "=", "<>")), _col("W", root_attr))]
        children.append(make_node([(alias, table)], preds, Quantifier.NOT_EXISTS, grandchildren))
    root = make_node([("W", root_table)], [], Quantifier.ROOT, children)
    return LogicTree(root=root, select_list=(_col("W", root_attr),))


def symmetric_tree(rng: random.Random, k: int) -> LogicTree:
    """A root with k NOT EXISTS children that are identical up to their
    aliases, each joining the root with `=`.  The seed picks only labels, all
    distinct, so every seed gives the same search cost; and since every
    operator is `=`, changing one to `<` leaves a tree no relabelling can
    match."""
    root_table, child_table = rng.sample(_TABLES, 2)
    root_attr = rng.choice(SCHEMA[root_table])
    child_attr = rng.choice([a for a in SCHEMA[child_table] if a != root_attr])
    children = [make_node([(f"K{i}", child_table)],
                          [Predicate(_col(f"K{i}", child_attr), "=", _col("P", root_attr))],
                          Quantifier.NOT_EXISTS)
                for i in range(k)]
    root = make_node([("P", root_table)], [], Quantifier.ROOT, children)
    return LogicTree(root=root, select_list=(_col("P", root_attr),))


def _rebuild(node, pred_fn, label):
    tables = [(label("alias", a), label("table", t)) for a, t in node.tables]
    preds = [pred_fn(p) for p in node.predicates]
    kids = [_rebuild(c, pred_fn, label) for c in node.children]
    return make_node(tables, preds, node.quantifier, kids)


def relabelled(rng: random.Random, lt: LogicTree) -> LogicTree:
    """The same tree under a seeded bijection of alias, table, attribute and
    constant labels, onto fresh names."""
    seen: dict[str, set[str]] = {"alias": set(), "table": set(), "attr": set(), "const": set()}
    stack = [lt.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        for alias, table in node.tables:
            seen["alias"].add(alias)
            seen["table"].add(table)
        for p in node.predicates:
            seen["attr"].add(p.lhs.attribute)
            if isinstance(p.rhs, ColumnRef):
                seen["attr"].add(p.rhs.attribute)
            else:
                seen["const"].add(p.rhs.literal)
    for col in lt.select_list:
        seen["attr"].add(col.attribute)
    prefixes = {"alias": "Z", "table": "Tab", "attr": "f", "const": "10"}
    mapping: dict[tuple[str, str], str] = {}
    for kind, labels in seen.items():
        fresh = [f"{prefixes[kind]}{n}" for n in range(len(labels))]
        rng.shuffle(fresh)
        mapping.update(((kind, old), new) for old, new in zip(sorted(labels), fresh))

    def label(kind, old):
        return mapping[(kind, old)]

    def col(c):
        return _col(label("alias", c.alias), label("attr", c.attribute))

    def pred(p):
        rhs = col(p.rhs) if isinstance(p.rhs, ColumnRef) else Constant(
            kind=p.rhs.kind, literal=label("const", p.rhs.literal))
        return Predicate(col(p.lhs), p.op, rhs)

    return LogicTree(root=_rebuild(lt.root, pred, label),
                     select_list=tuple(col(c) for c in lt.select_list))


def with_one_lt(rng: random.Random, lt: LogicTree) -> LogicTree:
    """The same tree with one seeded `=` predicate changed to `<`."""
    equalities = []
    stack = [lt.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        equalities.extend(p for p in node.predicates if p.op == "=")
    target = rng.choice(equalities)

    def pred(p):
        return Predicate(p.lhs, "<", p.rhs) if p == target else p

    return LogicTree(root=_rebuild(lt.root, pred, lambda kind, old: old),
                     select_list=lt.select_list)
