"""Direct first-order evaluation of Logic Trees over tiny database instances.

This is the semantic oracle of the test-suite: a query's result set is
computed by brute-force enumeration of bindings, with set semantics and
two-valued logic.  A database is a mapping from table name to a sequence of
rows (attribute -> value dicts).  It is the reference for simplify_forall,
whose rewrite lt_to_sql prints back and so cannot check; SQLite checks it in
turn (test_sqlite_differential.py).
"""

from __future__ import annotations

import random
from itertools import product
from typing import Mapping, Sequence

from sqldiagram.corpus import SCHEMA
from sqldiagram.logic import LogicTree, LtNode, Predicate, Quantifier
from sqldiagram.sqlast import ColumnRef, Constant

Row = Mapping[str, object]
Database = Mapping[str, Sequence[Row]]


def evaluate(lt: LogicTree, db: Database) -> frozenset[tuple]:
    """Result set of the query: one tuple per select list per satisfying binding."""
    results = set()
    root = lt.root
    for env in _bindings(root, db, {}):
        if _predicates_hold(root.predicates, env) and _children_hold(root.children, db, env):
            results.add(tuple(env[col.alias][col.attribute] for col in lt.select_list))
    return frozenset(results)


def _bindings(node: LtNode, db: Database, outer: dict):
    aliases = [alias for alias, _ in node.tables]
    row_sets = [db.get(table, ()) for _, table in node.tables]
    for combo in product(*row_sets):
        env = dict(outer)
        env.update(zip(aliases, combo))
        yield env


def _holds(node: LtNode, db: Database, outer: dict) -> bool:
    if node.quantifier is Quantifier.EXISTS:
        return any(
            _predicates_hold(node.predicates, env) and _children_hold(node.children, db, env)
            for env in _bindings(node, db, outer))
    if node.quantifier is Quantifier.NOT_EXISTS:
        return not any(
            _predicates_hold(node.predicates, env) and _children_hold(node.children, db, env)
            for env in _bindings(node, db, outer))
    if node.quantifier is Quantifier.FOR_ALL:
        # own predicates are the premise, the children the conclusion
        return all(
            not _predicates_hold(node.predicates, env) or _children_hold(node.children, db, env)
            for env in _bindings(node, db, outer))
    raise ValueError(f"cannot evaluate quantifier {node.quantifier}")


def _children_hold(children, db: Database, env: dict) -> bool:
    return all(_holds(child, db, env) for child in children)


def _predicates_hold(predicates, env: dict) -> bool:
    return all(_predicate_holds(p, env) for p in predicates)


def _predicate_holds(pred: Predicate, env: dict) -> bool:
    lhs = env[pred.lhs.alias][pred.lhs.attribute]
    if isinstance(pred.rhs, ColumnRef):
        rhs = env[pred.rhs.alias][pred.rhs.attribute]
    else:
        rhs = constant_value(pred.rhs)
    return compare(lhs, pred.op, rhs)


def constant_value(constant: Constant) -> object:
    if constant.kind == "number":
        literal = constant.literal
        return float(literal) if any(c in ".eE" for c in literal) else int(literal)
    return constant.literal


# The six comparison operators of the SQL fragment, the ones compare reads.
COMPARE_OPS = ("<", "<=", "=", "<>", ">=", ">")


def compare(lhs: object, op: str, rhs: object) -> bool:
    if not (isinstance(lhs, (int, float)) and isinstance(rhs, (int, float))):
        lhs, rhs = str(lhs), str(rhs)
    if op == "=":
        return lhs == rhs
    if op == "<>":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise ValueError(f"unknown operator {op!r}")


def random_database(rng: random.Random, lt: LogicTree, *, max_rows: int = 2,
                    domain: tuple[int, ...] = (0, 1, 2)) -> dict[str, list[dict[str, int]]]:
    """A random instance, over corpus.SCHEMA, of every table name the tree mentions."""
    tables = sorted({table for _, node, _ in lt.walk() for _, table in node.tables})
    db = {}
    for table in tables:
        rows = []
        for _ in range(rng.randint(0, max_rows)):
            rows.append({attr: rng.choice(domain) for attr in SCHEMA[table]})
        db[table] = rows
    return db
