"""Spellings of one query that must mean, and draw, the same thing.

Each function takes a scope-resolved AST, whose aliases are unique across
blocks, and a seeded `random.Random`, and returns another AST of the same
query:

- `reordered` shuffles FROM items and conjuncts (subqueries among them) in
  every block and swaps join operands, mirroring the operator;
- `quantified` rewrites [NOT] EXISTS subqueries that join an enclosing
  block as `x op ANY (S)` or `NOT x op' ALL (S)` (`NOT x op ANY (S)` or
  `x op' ALL (S)` for NOT EXISTS), op' the complement of op;
- `renamed` renames every alias by a random bijection.

The first two keep the logic tree, so the diagram's DOT and JSON too; the
third keeps both up to renaming.
"""

from __future__ import annotations

import random
from dataclasses import replace

from sqldiagram.sqlast import (
    COMPLEMENT_OP,
    FLIPPED_OP,
    ColumnRef,
    Comparison,
    Exists,
    QuantifiedComparison,
    QueryAst,
)


def reordered(ast: QueryAst, rng: random.Random) -> QueryAst:
    def block(b: QueryAst) -> QueryAst:
        from_list, where = list(b.from_list), [predicate(p) for p in b.where_clause]
        rng.shuffle(from_list)
        rng.shuffle(where)
        return replace(b, from_list=tuple(from_list), where_clause=tuple(where))

    def predicate(p):
        if not isinstance(p, Comparison):
            return replace(p, subquery=block(p.subquery))
        if isinstance(p.rhs, ColumnRef) and rng.random() < 0.5:
            return Comparison(lhs=p.rhs, op=FLIPPED_OP[p.op], rhs=p.lhs)
        return p

    return block(ast)


def quantified(ast: QueryAst, rng: random.Random) -> QueryAst:
    """About 70% of the EXISTS subqueries that hold a join to an enclosing
    block are rewritten; the join becomes the link x op c, with x the
    enclosing block's column and c the subquery's one select column."""
    def block(b: QueryAst, outer: frozenset[str]) -> QueryAst:
        visible = outer | {ref.alias for ref in b.from_list}
        where = []
        for p in b.where_clause:
            if not isinstance(p, Comparison):
                p = replace(p, subquery=block(p.subquery, visible))
                if isinstance(p, Exists) and rng.random() < 0.7:
                    p = _as_quantified(p, visible, rng) or p
            where.append(p)
        return replace(b, where_clause=tuple(where))

    return block(ast, frozenset())


def _as_quantified(p: Exists, visible: frozenset[str],
                   rng: random.Random) -> QuantifiedComparison | None:
    sub = p.subquery
    local = {ref.alias for ref in sub.from_list}
    links = [i for i, c in enumerate(sub.where_clause)
             if isinstance(c, Comparison) and isinstance(c.rhs, ColumnRef)
             and {c.lhs.alias in local, c.rhs.alias in local} == {True, False}
             and {c.lhs.alias, c.rhs.alias} - local <= visible]
    if not links:
        return None
    i = rng.choice(links)
    join = sub.where_clause[i]
    if join.lhs.alias in local:
        x, op, c = join.rhs, FLIPPED_OP[join.op], join.lhs
    else:
        x, op, c = join.lhs, join.op, join.rhs
    rest = replace(sub, select_list=(c,),
                   where_clause=sub.where_clause[:i] + sub.where_clause[i + 1:])
    if rng.random() < 0.5:
        return QuantifiedComparison(p.negated, x, op, "ANY", rest)
    return QuantifiedComparison(not p.negated, x, COMPLEMENT_OP[op], "ALL", rest)


def renamed(ast: QueryAst, rng: random.Random) -> QueryAst:
    """Each alias goes to another alias of the query or to a fresh name."""
    aliases = sorted(_aliases(ast))
    targets = rng.sample(aliases + [f"Z{i}" for i in range(len(aliases))], len(aliases))
    new = dict(zip(aliases, targets))

    def column(c: ColumnRef) -> ColumnRef:
        return replace(c, alias=new[c.alias])

    def block(b: QueryAst) -> QueryAst:
        return QueryAst(select_list=tuple(map(column, b.select_list)),
                        from_list=tuple(replace(ref, alias=new[ref.alias]) for ref in b.from_list),
                        where_clause=tuple(map(predicate, b.where_clause)))

    def predicate(p):
        if isinstance(p, Comparison):
            return replace(p, lhs=column(p.lhs),
                           rhs=column(p.rhs) if isinstance(p.rhs, ColumnRef) else p.rhs)
        if isinstance(p, Exists):
            return replace(p, subquery=block(p.subquery))
        return replace(p, column=column(p.column), subquery=block(p.subquery))

    return block(ast)


def _aliases(b: QueryAst) -> set[str]:
    found = {ref.alias for ref in b.from_list}
    for p in b.where_clause:
        if not isinstance(p, Comparison):
            found |= _aliases(p.subquery)
    return found
