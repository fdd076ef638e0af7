"""Alias scope resolution.

A block's aliases are visible in the block itself and every block nested
below it.  References bind to the nearest enclosing declaration; sibling
blocks cannot see each other's aliases.  After resolution every column
reference is qualified and aliases are globally unique.

Renaming follows document order: the FROM aliases of every block, read
root first and each block before its subqueries, form one list.  The first
declaration of a name keeps it; a later one is renamed with a numeric
suffix.  Rewriting walks the blocks in the same order and takes each
block's final names from that list.  It returns the input's own nodes
wherever it renames and qualifies nothing: the whole AST when nothing
changes, else new nodes only on the paths down to what changed.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import is_

from .errors import AmbiguousColumnError, UnknownAliasError
from .sqlast import (
    ColumnRef,
    Comparison,
    Constant,
    Exists,
    PredicateAst,
    QuantifiedComparison,
    QueryAst,
    TableRef,
)


def resolve_scopes(ast: QueryAst) -> QueryAst:
    """Qualify every column reference and make aliases globally unique."""
    declared: list[str] = []
    _collect_declarations(ast, declared)

    # First declaration of a name keeps it; later ones get the smallest free
    # numeric suffix >= 2, skipping names any block already declares.  `used`
    # only grows, so a suffix once skipped never frees up: each name's search
    # resumes where its last one stopped.
    taken = set(declared)
    used: set[str] = set()
    next_suffix: dict[str, int] = {}
    finals: list[str] = []
    for name in declared:
        final = name
        if name in used:
            suffix = next_suffix.get(name, 2)
            while f"{name}{suffix}" in taken or f"{name}{suffix}" in used:
                suffix += 1
            next_suffix[name] = suffix + 1
            final = f"{name}{suffix}"
        used.add(final)
        finals.append(final)
    return _rewrite_block(ast, [], iter(finals))


def _collect_declarations(block: QueryAst, out: list[str]) -> None:
    local: set[str] = set()
    for ref in block.from_list:
        if ref.alias in local:
            raise AmbiguousColumnError(
                f"alias {ref.alias!r} is declared twice in the same FROM clause",
                ref.line, ref.column)
        local.add(ref.alias)
        out.append(ref.alias)
    for pred in block.where_clause:
        if not isinstance(pred, Comparison):
            _collect_declarations(pred.subquery, out)


def _rewrite_block(block: QueryAst, chain: list[dict[str, str]],
                   finals: Iterator[str]) -> QueryAst:
    local = {ref.alias: next(finals) for ref in block.from_list}
    chain = chain + [local]

    def resolve_ref(ref: ColumnRef) -> ColumnRef:
        if ref.alias is None:
            visible = [final for scope in chain for final in scope.values()]
            if len(visible) > 1:
                raise AmbiguousColumnError(
                    f"unqualified column {ref.attribute!r} with {len(visible)} tables in scope",
                    ref.line, ref.column)
            alias = visible[0]
        else:
            for scope in reversed(chain):
                if ref.alias in scope:
                    alias = scope[ref.alias]
                    break
            else:
                raise UnknownAliasError(ref.alias, ref.attribute, ref.line, ref.column)
        return ref if alias == ref.alias else ColumnRef(alias, ref.attribute, ref.line, ref.column)

    def rewrite_pred(pred: PredicateAst) -> PredicateAst:
        if isinstance(pred, Comparison):
            # the right operand first, so that it is the one an error names
            rhs = pred.rhs if isinstance(pred.rhs, Constant) else resolve_ref(pred.rhs)
            lhs = resolve_ref(pred.lhs)
            if lhs is pred.lhs and rhs is pred.rhs:
                return pred
            return Comparison(lhs, pred.op, rhs)
        if isinstance(pred, Exists):
            subquery = _rewrite_block(pred.subquery, chain, finals)
            return pred if subquery is pred.subquery else Exists(pred.negated, subquery)
        column = resolve_ref(pred.column)
        subquery = _rewrite_block(pred.subquery, chain, finals)
        if column is pred.column and subquery is pred.subquery:
            return pred
        return QuantifiedComparison(pred.negated, column, pred.op, pred.mode, subquery)

    from_list = block.from_list
    if any(alias != final for alias, final in local.items()):
        from_list = tuple(TableRef(ref.table_name, local[ref.alias], ref.line, ref.column)
                          for ref in from_list)
    where = tuple(rewrite_pred(pred) for pred in block.where_clause)
    select_list = tuple(resolve_ref(col) for col in block.select_list)
    if from_list is block.from_list and all(
            map(is_, where + select_list, block.where_clause + block.select_list)):
        return block
    return QueryAst(select_list, from_list, where)
