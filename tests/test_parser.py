import pytest

from sqldiagram import build_logic_tree, lt_to_sql, parse, print_sql, resolve_scopes
from sqldiagram.errors import SqlSyntaxError, UnsupportedFeatureError
from sqldiagram.fixtures import (
    ONLY_LIKED_DRINKS,
    ONLY_RED_VARIANTS,
    OWL_SELECTION_BURIED,
    SOME_LIKED_DRINK,
    VALID_QUERIES,
)
from sqldiagram.parser import tokenize
from sqldiagram.sqlast import (
    ColumnRef,
    Comparison,
    Constant,
    Exists,
    QuantifiedComparison,
)

from evaluate_reference import COMPARE_OPS, constant_value
from graphs import lower


def test_conjunctive_query_shape():
    ast = parse(SOME_LIKED_DRINK)
    assert [t.alias for t in ast.from_list] == ["F", "L", "S"]
    assert [t.table_name for t in ast.from_list] == ["Frequents", "Likes", "Serves"]
    preds = ast.where_clause
    assert len(preds) == 3
    assert all(isinstance(p, Comparison) and p.op == "=" for p in preds)
    assert all(isinstance(p.rhs, ColumnRef) for p in preds)


def test_minimal_query_no_where():
    ast = parse("SELECT T.a FROM T")
    assert ast.from_list == (parse("SELECT T.a FROM T").from_list[0],)
    assert ast.from_list[0].alias == "T"
    assert ast.from_list[0].table_name == "T"
    assert ast.where_clause == ()
    assert ast.select_list == (ColumnRef(alias="T", attribute="a"),)


def test_doubly_nested_not_exists():
    ast = parse(ONLY_LIKED_DRINKS)
    (outer,) = ast.where_clause
    assert isinstance(outer, Exists) and outer.negated
    inner = [p for p in outer.subquery.where_clause
             if isinstance(p, Exists)]
    assert len(inner) == 1 and inner[0].negated
    # keywords are case-insensitive ("not exists" in the source)
    assert outer.subquery.select_list == ()  # SELECT *


def test_keywords_case_insensitive_identifiers_preserved():
    ast = parse("select Foo.Bar from Tab Foo where Foo.Bar = 'x'")
    assert ast.from_list[0].table_name == "Tab"
    assert ast.from_list[0].alias == "Foo"
    assert ast.select_list[0].attribute == "Bar"


def test_or_rejected():
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse("SELECT F.person FROM Frequents F WHERE F.bar = 'Owl' OR F.bar = 'Fox'")
    assert exc.value.feature == "OR"


@pytest.mark.parametrize("sql,feature", [
    ("SELECT DISTINCT T.a FROM T", "DISTINCT"),
    ("SELECT T.a FROM T GROUP BY T.a", "GROUP BY"),
    ("SELECT T.a FROM T ORDER BY T.a", "ORDER BY"),
    ("SELECT T.a FROM T LIMIT 1", "LIMIT"),
    ("SELECT T.a FROM T HAVING T.a = 1", "HAVING"),
    ("SELECT T.a FROM T UNION SELECT S.a FROM S", "UNION"),
    ("SELECT T.a FROM T LEFT OUTER JOIN S ON T.a = S.a", "outer join"),
    ("SELECT COUNT(T.a) FROM T", "aggregate"),
    ("SELECT T.a FROM T WHERE T.a = T.b + 1", "arithmetic expression"),
    ("SELECT T.a FROM T WHERE T.a = -T.b", "arithmetic expression"),
    ("SELECT T.a FROM T WHERE T.a - 1 = T.b", "arithmetic expression"),
    ("SELECT T.a FROM T, S WHERE T.a = S.b - 1", "arithmetic expression"),
    ("SELECT T.a FROM T WHERE -T.b = 1", "arithmetic expression"),
])
def test_unsupported_features(sql, feature):
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse(sql)
    assert exc.value.feature == feature


def test_syntax_error_carries_position():
    with pytest.raises(SqlSyntaxError) as exc:
        parse("SELECT T.a FROM T WHERE T.a =")
    assert exc.value.line == 1
    assert exc.value.column == 30


def test_root_star_rejected():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT * FROM T")


def test_two_constant_comparison_rejected():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT T.a FROM T WHERE 3 = 3")


def test_constant_on_left_is_normalized():
    ast = parse("SELECT T.a FROM T WHERE 3 < T.a")
    (pred,) = ast.where_clause
    assert isinstance(pred, Comparison)
    assert pred.lhs == ColumnRef(alias="T", attribute="a")
    assert pred.op == ">"
    assert pred.rhs == Constant(kind="number", literal="3")


def test_string_constant_content_preserved():
    ast = parse("SELECT T.a FROM T WHERE T.a = 'Owl  Fox'")
    (pred,) = ast.where_clause
    assert pred.rhs == Constant(kind="string", literal="Owl  Fox")


def test_in_and_quantified_forms():
    ast = parse("SELECT T.a FROM T WHERE T.a NOT IN (SELECT S.b FROM S) "
                "AND T.a > ALL (SELECT S.b FROM S) "
                "AND NOT T.a = ANY (SELECT S.b FROM S)")
    preds = ast.where_clause
    assert isinstance(preds[0], QuantifiedComparison) and preds[0].negated
    assert preds[0].op == "=" and preds[0].mode == "ANY"
    assert isinstance(preds[1], QuantifiedComparison) and preds[1].mode == "ALL"
    assert isinstance(preds[2], QuantifiedComparison)
    assert preds[2].negated and preds[2].mode == "ANY" and preds[2].op == "="


def test_not_in_is_negated_equal_any():
    not_in = parse("SELECT T.a FROM T WHERE T.a NOT IN (SELECT S.b FROM S)")
    assert parse("SELECT T.a FROM T WHERE NOT T.a = ANY (SELECT S.b FROM S)") == not_in
    assert print_sql(not_in) == "SELECT T.a FROM T WHERE T.a NOT IN (SELECT S.b FROM S)"


def test_trailing_semicolon_accepted():
    assert parse("SELECT T.a FROM T;") == parse("SELECT T.a FROM T")


ALL_AND_ANY = ("SELECT S.sname FROM Sailor S WHERE S.rating > ALL"
               "(SELECT T.rating FROM Sailor T WHERE NOT T.sid = ANY"
               "(SELECT R.sid FROM Reserves R WHERE R.bid IN (SELECT B.bid FROM Boat B)))")


# [NOT] EXISTS, x [NOT] IN, and [NOT] x op ANY|ALL for each of the six operators.
SUBQUERY_FORMS = [
    *(f"{not_}EXISTS (SELECT * FROM S WHERE S.b = T.a)" for not_ in ("", "NOT ")),
    *(f"T.a {not_}IN (SELECT S.b FROM S)" for not_ in ("", "NOT ")),
    *(f"{not_}T.a {op} {mode} (SELECT S.b FROM S)"
      for not_ in ("", "NOT ") for op in COMPARE_OPS for mode in ("ANY", "ALL")),
]


def test_print_parse_round_trip_on_fixture_corpus():
    assert len(SUBQUERY_FORMS) == 28
    corpus = {**VALID_QUERIES, "all_and_any": ALL_AND_ANY,
              **{f"only_red_{i}": sql for i, sql in enumerate(ONLY_RED_VARIANTS)},
              **{form: f"SELECT T.a FROM T WHERE {form}" for form in SUBQUERY_FORMS}}
    for name, sql in corpus.items():
        first = parse(sql)
        assert parse(print_sql(first)) == first, name
        resolved = resolve_scopes(first)
        assert parse(print_sql(resolved)) == resolved, name


def test_printer_output_is_single_canonical_line():
    text = print_sql(parse(ONLY_LIKED_DRINKS))
    assert "\n" not in text
    assert text.startswith("SELECT F.person FROM Frequents F WHERE NOT EXISTS (")


def _comparisons(sql):
    return [p for p in parse(sql).where_clause if isinstance(p, Comparison)]


def test_line_and_block_comments_are_skipped():
    plain = parse("SELECT T.a FROM T WHERE T.a = 1")
    assert parse("SELECT T.a -- the column\nFROM T WHERE T.a = 1 -- done") == plain
    assert parse("SELECT /* c */ T.a FROM T/**/WHERE T.a = /* one\n two */ 1") == plain


def test_block_comment_across_lines_keeps_positions():
    with pytest.raises(SqlSyntaxError) as exc:
        parse("SELECT T.a /* one\n  two */ FROM T\nWHERE T.a = )")
    assert (exc.value.line, exc.value.column) == (3, 13)
    with pytest.raises(SqlSyntaxError) as exc:
        parse("SELECT T.a /* one\n  two */ FROM T WHERE T.a = )")
    assert (exc.value.line, exc.value.column) == (2, 29)


def test_unterminated_block_comment_is_a_positioned_error():
    with pytest.raises(SqlSyntaxError) as exc:
        parse("SELECT T.a\nFROM T /* open\n*")
    assert str(exc.value).startswith("unterminated block comment")
    assert (exc.value.line, exc.value.column) == (2, 8)


def test_doubled_quote_is_an_escaped_quote():
    sql = "SELECT T.a FROM T WHERE T.a = 'O''Brien' AND T.b = ''''"
    first, second = _comparisons(sql)
    assert first.rhs == Constant(kind="string", literal="O'Brien")
    assert second.rhs == Constant(kind="string", literal="'")
    ast = parse(sql)
    assert parse(print_sql(ast)) == ast
    lt = build_logic_tree(resolve_scopes(ast))
    assert lower(lt_to_sql(lt)) == lt


def test_exponent_is_part_of_the_number():
    first, second = _comparisons("SELECT T.a FROM T WHERE T.a < 1e5 AND T.b = 2.5E-3")
    assert first.rhs == Constant(kind="number", literal="1e5")
    assert second.rhs == Constant(kind="number", literal="2.5E-3")
    assert constant_value(first.rhs) == 100000.0
    assert constant_value(second.rhs) == 0.0025
    assert constant_value(Constant(kind="number", literal="-1")) == -1


def test_numbers_are_decimal_digits_of_any_script():
    (comparison,) = _comparisons("SELECT T.a FROM T WHERE T.a = ١٢")
    assert constant_value(comparison.rhs) == 12
    for sql, column in (("SELECT T.a FROM T WHERE T.a = ²", 31),
                        ("SELECT T.a FROM T WHERE T.a = 1²", 32)):
        with pytest.raises(SqlSyntaxError) as exc:
            parse(sql)
        assert str(exc.value).startswith("unexpected character '²'")
        assert (exc.value.line, exc.value.column) == (1, column)


def test_signed_constant_where_a_constant_may_stand():
    ast = parse("SELECT S.a FROM S WHERE S.b = -1 AND -1 < S.b AND S.c <> - 2.5 AND S.d = +3")
    assert [(p.op, p.rhs) for p in ast.where_clause] == [
        ("=", Constant(kind="number", literal="-1")),
        (">", Constant(kind="number", literal="-1")),
        ("<>", Constant(kind="number", literal="-2.5")),
        ("=", Constant(kind="number", literal="3")),
    ]
    assert parse(print_sql(ast)) == ast
    with pytest.raises(SqlSyntaxError) as exc:
        parse("SELECT S.a FROM S WHERE 1 = -1")
    assert "two constants" in str(exc.value)


def test_every_cut_before_a_token_parses_or_fails_at_the_end_of_input():
    # No parse step takes the EOF token, so a query that runs out of tokens
    # is reported where that token stands.
    cuts = parsed = at_end = 0
    for sql in [*VALID_QUERIES.values(), OWL_SELECTION_BURIED]:
        line_starts = [0] + [i + 1 for i, ch in enumerate(sql) if ch == "\n"]
        for tok in tokenize(sql)[:-1]:
            prefix = sql[:line_starts[tok.line - 1] + tok.column - 1]
            cuts += 1
            try:
                parse(prefix)
                parsed += 1
            except (SqlSyntaxError, UnsupportedFeatureError) as exc:
                if "unexpected 'end of input'" in str(exc):
                    eof = tokenize(prefix)[-1]
                    assert (exc.line, exc.column) == (eof.line, eof.column), prefix
                    at_end += 1
    assert (cuts, parsed, at_end) == (672, 35, 637)
