"""Seeded random corpus of non-degenerate Logic Trees over a fixed schema.

The generator builds trees that satisfy the validity rules by construction:
every predicate references a local attribute, every nested block either
references its parent or has all of its children reference both the block
and the block's parent, references only go to ancestors, aliases are
globally unique and depth never exceeds MAX_DEPTH.
"""

from __future__ import annotations

import random

from .logic import MAX_DEPTH, LogicTree, LtNode, Predicate, Quantifier, make_node
from .sqlast import ColumnRef, Constant

SCHEMA = {
    "R": ("a", "b"),
    "S": ("a", "b", "c"),
    "T": ("x", "y"),
    "U": ("u", "v"),
}

_OPS = ("=", "=", "=", "<", "<=", "<>", ">=", ">")
_MAX_CHILDREN = 3
_MAX_TABLES = 2


def random_logic_tree(rng: random.Random, *, max_nodes: int = 8) -> LogicTree:
    """A random valid Logic Tree using exists/not-exists quantifiers only."""
    counter = [0]
    remaining = max(max_nodes - 1, 0)  # nodes still to place below the root

    def fresh_tables() -> list[tuple[str, str]]:
        tables = []
        for _ in range(rng.randint(1, _MAX_TABLES)):
            counter[0] += 1
            tables.append((f"A{counter[0]}", rng.choice(sorted(SCHEMA))))
        return tables

    def attr_of(table: str) -> str:
        return rng.choice(SCHEMA[table])

    def join_pred(local: tuple[str, str], target: tuple[str, str]) -> Predicate:
        return Predicate(
            lhs=ColumnRef(alias=local[0], attribute=attr_of(local[1])),
            op=rng.choice(_OPS),
            rhs=ColumnRef(alias=target[0], attribute=attr_of(target[1])))

    def selection_pred(local: tuple[str, str]) -> Predicate:
        return Predicate(
            lhs=ColumnRef(alias=local[0], attribute=attr_of(local[1])),
            op=rng.choice(_OPS),
            rhs=Constant(kind="number", literal=str(rng.randint(0, 2))))

    def gen(depth: int, ancestors: list[list[tuple[str, str]]],
            forced_targets: list[tuple[str, str]], quantifier: Quantifier) -> LtNode:
        nonlocal remaining
        tables = fresh_tables()
        predicates = [join_pred(rng.choice(tables), target) for target in forced_targets]

        wanted_children = 0
        if depth < MAX_DEPTH:
            wanted_children = rng.choice((0, 0, 1, 1, 2, _MAX_CHILDREN))
        n_children = min(wanted_children, remaining)
        remaining -= n_children

        parent_tables = ancestors[-1] if ancestors else None
        mediated = False
        if depth > 0 and not forced_targets:
            mediated = n_children > 0 and rng.random() < 0.35
            if not mediated:
                predicates.append(join_pred(rng.choice(tables), rng.choice(parent_tables)))
        if rng.random() < 0.3:
            predicates.append(selection_pred(rng.choice(tables)))
        if ancestors and rng.random() < 0.25:
            level = rng.randrange(len(ancestors))
            predicates.append(join_pred(rng.choice(tables), rng.choice(ancestors[level])))
        if len(tables) == 2 and rng.random() < 0.3:
            predicates.append(join_pred(tables[0], tables[1]))

        children = []
        for _ in range(n_children):
            forced: list[tuple[str, str]] = []
            if mediated:
                forced = [rng.choice(tables), rng.choice(parent_tables)]
            child_q = rng.choice((Quantifier.EXISTS, Quantifier.NOT_EXISTS))
            children.append(gen(depth + 1, ancestors + [tables], forced, child_q))
        return make_node(tables, predicates, quantifier, children)

    root = gen(0, [], [], Quantifier.ROOT)
    alias, table = root.tables[0]
    select = tuple(ColumnRef(alias=alias, attribute=attr)
                   for attr in sorted(SCHEMA[table])[:rng.randint(1, 2)])
    return LogicTree(root=root, select_list=select)

