"""AST for the supported SQL fragment.

A query is a SELECT list, a FROM list and a WHERE clause, which is the
tuple of its conjuncts (empty without WHERE).  Predicates are comparisons
(join or selection), [NOT] EXISTS subqueries, or quantified comparisons
`[NOT] x op ANY|ALL (S)`.  As in the SQL standard, `x IN (S)` is
`x = ANY (S)` and `x NOT IN (S)` is `NOT x = ANY (S)`: both parse to the
same QuantifiedComparison, and print_sql writes an `= ANY` node as IN.
There is deliberately no conjunction or disjunction node, no grouping and
no arithmetic.  Comparison is also the logic tree's predicate
(logic.Predicate), and its text() is the one place SQL spells a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Mirror image of an operator: used when the two operands swap places.
FLIPPED_OP = {"<": ">", "<=": ">=", "=": "=", "<>": "<>", ">": "<", ">=": "<="}

# Logical complement: NOT (a op b) == a COMPLEMENT_OP[op] b.
COMPLEMENT_OP = {"<": ">=", "<=": ">", "=": "<>", "<>": "=", ">": "<=", ">=": "<"}


@dataclass(frozen=True, slots=True)
class Constant:
    kind: str  # "string" | "number"
    literal: str  # a number as written, with its "-" sign; a string's value, '' read as '

    def sql(self) -> str:
        if self.kind == "string":
            return "'" + self.literal.replace("'", "''") + "'"
        return self.literal


@dataclass(frozen=True, slots=True)
class ColumnRef:
    alias: str | None  # None until scope resolution qualifies it
    attribute: str
    # source position for diagnostics; never part of structural equality
    line: int = field(default=0, compare=False, repr=False)
    column: int = field(default=0, compare=False, repr=False)

    def sql(self) -> str:
        return f"{self.alias}.{self.attribute}" if self.alias else self.attribute


@dataclass(frozen=True, slots=True)
class TableRef:
    table_name: str
    alias: str  # equals table_name when the query gave no alias
    # source position of the alias (or of the table name without one)
    line: int = field(default=0, compare=False, repr=False)
    column: int = field(default=0, compare=False, repr=False)

    def sql(self) -> str:
        if self.alias == self.table_name:
            return self.table_name
        return f"{self.table_name} {self.alias}"


@dataclass(frozen=True, slots=True)
class Comparison:
    lhs: ColumnRef
    op: str
    rhs: ColumnRef | Constant

    @property
    def is_selection(self) -> bool:
        return isinstance(self.rhs, Constant)

    @property
    def aliases(self) -> tuple[str, ...]:
        if isinstance(self.rhs, ColumnRef):
            return (self.lhs.alias, self.rhs.alias)
        return (self.lhs.alias,)

    def normalize(self) -> "Comparison":
        """Join predicates get lexicographic operand order, operator flipped to match."""
        if self.is_selection:
            return self
        assert isinstance(self.rhs, ColumnRef)
        lhs_key = (self.lhs.alias, self.lhs.attribute)
        rhs_key = (self.rhs.alias, self.rhs.attribute)
        if lhs_key <= rhs_key:
            return self
        return Comparison(lhs=self.rhs, op=FLIPPED_OP[self.op], rhs=self.lhs)

    def text(self) -> str:
        return f"{self.lhs.sql()} {self.op} {self.rhs.sql()}"

    def sort_key(self):
        if isinstance(self.rhs, ColumnRef):
            rhs = ("col", self.rhs.alias, self.rhs.attribute)
        else:
            rhs = ("const", self.rhs.kind, self.rhs.literal)
        return (self.lhs.alias, self.lhs.attribute, self.op, rhs)


@dataclass(frozen=True, slots=True)
class Exists:
    negated: bool
    subquery: "QueryAst"


@dataclass(frozen=True, slots=True)
class QuantifiedComparison:
    negated: bool
    column: ColumnRef
    op: str
    mode: str  # "ANY" | "ALL"
    subquery: "QueryAst"


PredicateAst = Comparison | Exists | QuantifiedComparison


@dataclass(frozen=True, slots=True)
class QueryAst:
    select_list: tuple[ColumnRef, ...]  # empty tuple encodes SELECT * (subqueries only)
    from_list: tuple[TableRef, ...]
    where_clause: tuple[PredicateAst, ...]  # the conjuncts; () without WHERE


def print_sql(ast: QueryAst) -> str:
    """The inverse of parse up to formatting: parsing the output yields a
    structurally identical AST.  Output is a single line with uppercase
    keywords and document-order predicates."""
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
    not_ = "NOT " if pred.negated else ""
    sub = f"({print_sql(pred.subquery)})"
    if isinstance(pred, Exists):
        return f"{not_}EXISTS {sub}"
    if pred.op == "=" and pred.mode == "ANY":  # x [NOT] IN (S)
        return f"{pred.column.sql()} {not_}IN {sub}"
    return f"{not_}{pred.column.sql()} {pred.op} {pred.mode} {sub}"
