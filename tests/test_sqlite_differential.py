"""SQLite, an SQL engine this package does not control, checks what a query means.

On small random databases these results must be the same set of rows:
SQLite on the query's SQL text, SQLite on `lt_to_sql` of the logic tree it
lowers to, and `evaluate_reference.evaluate` of that tree and of its
`simplify_forall` rewrite; and SQLite on the respellings of `variants.py`.

Limits: NULL is out of scope, and every column holds values of one type,
because `evaluate` compares mixed types as strings while SQLite orders
numbers before text.  SQLite has no `op ANY` or `op ALL`, so a query with
either form is given to it in its textbook meaning (see `sqlite_text`).
"""

import contextlib
import random
from dataclasses import dataclass, replace

import pytest

sqlite3 = pytest.importorskip("sqlite3", reason="this Python is built without sqlite3")

from sqldiagram import build_logic_tree, lt_to_sql, parse, print_sql, resolve_scopes, simplify_forall
from sqldiagram.corpus import SCHEMA, random_logic_tree
from sqldiagram.fixtures import (
    ONLY_RED_NOT_ANY,
    ONLY_RED_NOT_IN,
    OWL_SELECTION_BURIED,
    VALID_QUERIES,
)
from sqldiagram.parser import tokenize
from sqldiagram.sqlast import ColumnRef, Comparison, Constant, Exists, QuantifiedComparison

from evaluate_reference import COMPARE_OPS, constant_value, evaluate, random_database
from variants import quantified, renamed, reordered

QUANTIFIED = {
    f"{'not_' if negated else ''}{mode.lower()}_{op}":
        f"SELECT T.a FROM Tab T WHERE {'NOT ' if negated else ''}T.a {op} {mode} "
        "(SELECT S.b FROM S WHERE S.c <> T.c)"
    for mode in ("ANY", "ALL") for op in COMPARE_OPS for negated in (False, True)
}

QUERIES = {
    **VALID_QUERIES,
    "only_red_not_in": ONLY_RED_NOT_IN,
    "only_red_not_any": ONLY_RED_NOT_ANY,
    "owl_selection_buried": OWL_SELECTION_BURIED,
    **QUANTIFIED,
}


@dataclass(frozen=True)
class _Negated(Comparison):
    """NOT (lhs op rhs), spelled without the operator complement that lowering uses."""

    def text(self) -> str:
        return f"NOT ({super().text()})"


def _textbook(block):
    """The block with every `x op ANY (S)` written as EXISTS (S AND x op c) and
    every `x op ALL (S)` as NOT EXISTS (S AND NOT (x op c)), c being S's one
    select column; a NOT in front negates the EXISTS."""
    where = []
    for pred in block.where_clause:
        if isinstance(pred, QuantifiedComparison):
            sub = _textbook(pred.subquery)
            # x moves into S, so it must name an alias that S does not redeclare
            assert pred.column.alias not in {None, *(ref.alias for ref in sub.from_list)}
            test = (Comparison if pred.mode == "ANY" else _Negated)(
                lhs=pred.column, op=pred.op, rhs=sub.select_list[0])
            pred = Exists(negated=(pred.mode == "ALL") != pred.negated,
                          subquery=replace(sub, select_list=(),
                                           where_clause=sub.where_clause + (test,)))
        elif isinstance(pred, Exists):
            pred = replace(pred, subquery=_textbook(pred.subquery))
        where.append(pred)
    return replace(block, where_clause=tuple(where))


def sqlite_text(sql: str) -> str:
    """The query as SQLite reads it: the text itself, or, when it spells
    ANY or ALL, its parse printed back in the textbook meaning.  IN parses
    to the node of `= ANY`, so the keywords, not the AST, decide."""
    if not any(tok.kind == "KEYWORD" and tok.text in ("ANY", "ALL") for tok in tokenize(sql)):
        return sql
    return print_sql(_textbook(parse(sql)))


@contextlib.contextmanager
def loaded(columns: dict, db: dict):
    """An in-memory SQLite database with one table per `columns` entry,
    holding that table's rows of `db` (none when it has no entry)."""
    con = sqlite3.connect(":memory:")
    try:
        for table, attrs in columns.items():
            names = ", ".join(f'"{attr}"' for attr in attrs)
            con.execute(f'CREATE TABLE "{table}" ({names})')
            con.executemany(f'INSERT INTO "{table}" VALUES ({", ".join("?" * len(attrs))})',
                            [tuple(row[attr] for attr in attrs) for row in db.get(table, ())])
        yield con
    finally:
        con.close()


def rows(con, sql: str) -> frozenset:
    return frozenset(con.execute(sql).fetchall())


def typed_database(rng: random.Random, lt, *, max_rows: int = 3):
    """The columns each table of the tree uses, and a random instance of them.

    Columns that joins link, directly or through other columns, share one
    domain: the constants any of them meets plus two fillers of the same
    type, or 0, 1 and 2 when they meet none.
    """
    table_of = {alias: table for _, node, _ in lt.walk() for alias, table in node.tables}
    leader: dict = {}

    def find(key):
        while leader.setdefault(key, key) != key:
            key = leader[key]
        return key

    def key(col: ColumnRef):
        return (table_of[col.alias], col.attribute)

    used = {key(col) for col in lt.select_list}
    selections = []
    for _, node, _ in lt.walk():
        for pred in node.predicates:
            used.add(key(pred.lhs))
            if isinstance(pred.rhs, Constant):
                selections.append((key(pred.lhs), pred.rhs))
            else:
                used.add(key(pred.rhs))
                leader[find(key(pred.lhs))] = find(key(pred.rhs))
    constants = {find(column): set() for column in used}
    for column, constant in selections:
        constants[find(column)].add(constant)
    domains = {}
    for leader_key, found in constants.items():
        kinds = {constant.kind for constant in found}
        assert len(kinds) <= 1, f"columns joined to {leader_key} meet constants of two types"
        fillers = ("a", "z") if kinds == {"string"} else (0, 1, 2)
        domains[leader_key] = sorted({*fillers, *map(constant_value, found)})

    columns: dict[str, list[str]] = {}
    for table, attr in sorted(used):
        columns.setdefault(table, []).append(attr)
    db = {table: [{attr: rng.choice(domains[find((table, attr))]) for attr in attrs}
                  for _ in range(rng.randint(0, max_rows))]
          for table, attrs in columns.items()}
    return columns, db


def test_sqlite_agrees_with_evaluate_on_generated_trees():
    rng = random.Random(5)
    nonempty = 0
    for _ in range(200):
        lt = random_logic_tree(rng)
        simplified = simplify_forall(lt)
        sql = lt_to_sql(lt)
        for _ in range(5):
            db = random_database(rng, lt, max_rows=3)
            with loaded(SCHEMA, db) as con:
                result = rows(con, sql)
            assert evaluate(lt, db) == result, (sql, db)
            assert evaluate(simplified, db) == result, (sql, db)
            nonempty += bool(result)
    assert nonempty >= 200  # the databases are not so sparse that every answer is empty


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_sqlite_agrees_on_fixtures_and_quantified_comparisons(name):
    sql = QUERIES[name]
    lt = build_logic_tree(resolve_scopes(parse(sql)))
    simplified = simplify_forall(lt)
    source, lowered = sqlite_text(sql), lt_to_sql(lt)
    rng = random.Random(name)
    answers = set()
    for _ in range(25):
        columns, db = typed_database(rng, lt)
        with loaded(columns, db) as con:
            result = rows(con, source)
            assert rows(con, lowered) == result, (lowered, db)
        assert evaluate(lt, db) == result, db
        assert evaluate(simplified, db) == result, db
        answers.add(bool(result))
    assert answers == {False, True}  # some database answers the query, some does not


def test_sqlite_text_spells_any_and_all_out():
    assert sqlite_text(QUANTIFIED["not_all_<"]) == (
        "SELECT T.a FROM Tab T WHERE EXISTS (SELECT * FROM S WHERE S.c <> T.c "
        "AND NOT (T.a < S.b))")
    assert sqlite_text(QUANTIFIED["any_="]) == (
        "SELECT T.a FROM Tab T WHERE EXISTS (SELECT * FROM S WHERE S.c <> T.c AND T.a = S.b)")
    assert sqlite_text(ONLY_RED_NOT_IN) == ONLY_RED_NOT_IN


def test_sqlite_agrees_on_respelled_queries():
    # databases as the two tests above build them: typed for the fixtures,
    # over SCHEMA for generated trees
    rng = random.Random(2113)
    cases = [*((sql, False) for sql in VALID_QUERIES.values()),
             *((lt_to_sql(random_logic_tree(rng)), True) for _ in range(40))]
    answers = []
    for sql, generated in cases:
        ast = resolve_scopes(parse(sql))
        lt = build_logic_tree(ast)
        variants = [sqlite_text(print_sql(respell(ast, rng)))
                    for respell in (reordered, quantified, renamed)]
        for _ in range(4):
            columns, db = ((SCHEMA, random_database(rng, lt, max_rows=3)) if generated
                           else typed_database(rng, lt))
            with loaded(columns, db) as con:
                result = rows(con, sql)
                for variant in variants:
                    assert rows(con, variant) == result, (sql, variant, db)
            answers.append(bool(result))
    assert sum(answers) >= len(answers) // 4  # not every answer is empty
