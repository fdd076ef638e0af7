"""Canonical AST-to-SQL serializer.

print_sql is the inverse of parse up to formatting: parsing its output
yields a structurally identical AST.  Output is a single line with
uppercase keywords and document-order predicates.
"""

from __future__ import annotations

from .sqlast import (
    Comparison,
    Exists,
    InSubquery,
    PredicateAst,
    QuantifiedComparison,
    QueryAst,
)


def print_sql(ast: QueryAst) -> str:
    if ast.select_list:
        select = ", ".join(col.sql() for col in ast.select_list)
    else:
        select = "*"
    text = f"SELECT {select} FROM " + ", ".join(ref.sql() for ref in ast.from_list)
    if ast.where_clause:
        text += " WHERE " + " AND ".join(_predicate(p) for p in ast.where_clause)
    return text


def _predicate(pred: PredicateAst) -> str:
    if isinstance(pred, Comparison):
        return pred.text()
    if isinstance(pred, Exists):
        keyword = "NOT EXISTS" if pred.negated else "EXISTS"
        return f"{keyword} ({print_sql(pred.subquery)})"
    if isinstance(pred, InSubquery):
        keyword = "NOT IN" if pred.negated else "IN"
        return f"{pred.column.sql()} {keyword} ({print_sql(pred.subquery)})"
    if isinstance(pred, QuantifiedComparison):
        prefix = "NOT " if pred.negated else ""
        return f"{prefix}{pred.column.sql()} {pred.op} {pred.mode} ({print_sql(pred.subquery)})"
    raise TypeError(f"unknown predicate node {pred!r}")
