import itertools

import pytest

from sqldiagram import (
    LogicTree,
    Predicate,
    Quantifier,
    build_logic_tree,
    lt_equal,
    lt_to_json,
    lt_to_sql,
    parse,
    resolve_scopes,
    simplify_forall,
)
from sqldiagram.errors import MalformedSubqueryError
from sqldiagram.fixtures import (
    ONLY_LIKED_DRINKS,
    ONLY_RED_VARIANTS,
    SAILORS_ALL_RED,
    SAILORS_NO_RED,
    SAILORS_ONLY_RED,
    STUDENTS_ONLY_ART,
    VALID_QUERIES,
)
from sqldiagram.logic import make_node
from sqldiagram.sqlast import ColumnRef

from evaluate_reference import evaluate
from graphs import lower


def test_nested_not_exists_lowering():
    lt = lower(ONLY_LIKED_DRINKS)
    root = lt.root
    assert root.quantifier is Quantifier.ROOT
    assert root.tables == (("F", "Frequents"),)
    (serves,) = root.children
    assert serves.quantifier is Quantifier.NOT_EXISTS
    assert serves.tables == (("S", "Serves"),)
    assert [p.text() for p in serves.predicates] == ["F.bar = S.bar"]
    (likes,) = serves.children
    assert likes.quantifier is Quantifier.NOT_EXISTS
    assert likes.tables == (("L", "Likes"),)
    assert [p.text() for p in likes.predicates] == ["F.person = L.person", "L.drink = S.drink"]


def test_lowering_keeps_the_parsed_comparisons():
    ast = resolve_scopes(parse("SELECT T.a FROM Tab T WHERE T.a = 3 AND T.a < T.b"))
    lt = build_logic_tree(ast)
    assert {id(p) for p in lt.root.predicates} == {id(p) for p in ast.where_clause}


def test_minimal_query_lowering():
    lt = lower("SELECT T.a FROM Tab T")
    assert lt.root.children == ()
    assert lt.root.predicates == ()
    assert lt.root.tables == (("T", "Tab"),)


def test_syntactic_variants_same_tree():
    trees = [lower(sql) for sql in ONLY_RED_VARIANTS]
    assert lt_equal(trees[0], trees[1])
    assert lt_equal(trees[0], trees[2])
    assert trees[0] == trees[1] == trees[2]


def test_in_lowering_adds_link_predicate():
    lt = lower("SELECT T.a FROM Tab T WHERE T.a IN (SELECT S.b FROM S)")
    (child,) = lt.root.children
    assert child.quantifier is Quantifier.EXISTS
    assert [p.text() for p in child.predicates] == ["S.b = T.a"]


def test_all_lowering_complements_operator():
    lt = lower("SELECT T.a FROM Tab T WHERE T.a > ALL (SELECT S.b FROM S)")
    (child,) = lt.root.children
    assert child.quantifier is Quantifier.NOT_EXISTS
    assert [p.text() for p in child.predicates] == ["S.b >= T.a"]  # T.a <= S.b normalized


E, N = Quantifier.EXISTS, Quantifier.NOT_EXISTS

# Each subquery form's child quantifier and link operator (None: no link),
# written out by hand: A.x op ALL complements op, and a leading NOT flips
# the quantifier.
LOWERING = {
    "EXISTS": (E, None), "NOT EXISTS": (N, None),
    "A.x IN": (E, "="), "A.x NOT IN": (N, "="),
    "A.x < ANY": (E, "<"), "NOT A.x < ANY": (N, "<"),
    "A.x <= ANY": (E, "<="), "NOT A.x <= ANY": (N, "<="),
    "A.x = ANY": (E, "="), "NOT A.x = ANY": (N, "="),
    "A.x <> ANY": (E, "<>"), "NOT A.x <> ANY": (N, "<>"),
    "A.x >= ANY": (E, ">="), "NOT A.x >= ANY": (N, ">="),
    "A.x > ANY": (E, ">"), "NOT A.x > ANY": (N, ">"),
    "A.x < ALL": (N, ">="), "NOT A.x < ALL": (E, ">="),
    "A.x <= ALL": (N, ">"), "NOT A.x <= ALL": (E, ">"),
    "A.x = ALL": (N, "<>"), "NOT A.x = ALL": (E, "<>"),
    "A.x <> ALL": (N, "="), "NOT A.x <> ALL": (E, "="),
    "A.x >= ALL": (N, "<"), "NOT A.x >= ALL": (E, "<"),
    "A.x > ALL": (N, "<="), "NOT A.x > ALL": (E, "<="),
}


def test_each_subquery_form_lowers_to_its_quantifier_and_link():
    assert len(LOWERING) == 28
    for form, (quantifier, op) in LOWERING.items():
        select = "*" if form.endswith("EXISTS") else "B.y"
        lt = lower(f"SELECT A.x FROM Tab A WHERE {form} (SELECT {select} FROM S B)")
        (child,) = lt.root.children
        links = [] if op is None else [f"A.x {op} B.y"]  # A.x sorts before B.y
        assert (child.quantifier, [p.text() for p in child.predicates]) == (quantifier, links), form


def _all_instances(attrs, domain, max_rows):
    """Every set-semantics instance of one table with the given attributes."""
    all_rows = [dict(zip(attrs, combo)) for combo in itertools.product(domain, repeat=len(attrs))]
    instances = []
    for size in range(max_rows + 1):
        for rows in itertools.combinations(all_rows, size):
            instances.append(list(rows))
    return instances


def test_all_lowering_matches_direct_semantics_exhaustively():
    # oracle: for each T row, keep it iff t.a > b for every b in S
    lt = lower("SELECT T.a FROM Tab T WHERE T.a > ALL (SELECT S.b FROM S)")
    for t_rows in _all_instances(("a",), (0, 1, 2), 2):
        for s_rows in _all_instances(("b",), (0, 1, 2), 2):
            db = {"Tab": t_rows, "S": s_rows}
            expected = frozenset(
                (row["a"],) for row in t_rows
                if all(row["a"] > s["b"] for s in s_rows))
            assert evaluate(lt, db) == expected, db


def test_not_prefix_flips_quantifier():
    plain = lower("SELECT T.a FROM Tab T WHERE T.a = ANY (SELECT S.b FROM S)")
    negated = lower("SELECT T.a FROM Tab T WHERE NOT T.a = ANY (SELECT S.b FROM S)")
    assert plain.root.children[0].quantifier is Quantifier.EXISTS
    assert negated.root.children[0].quantifier is Quantifier.NOT_EXISTS
    not_in = lower("SELECT T.a FROM Tab T WHERE T.a NOT IN (SELECT S.b FROM S)")
    assert lt_equal(negated, not_in)


def test_malformed_in_subquery():
    with pytest.raises(MalformedSubqueryError):
        lower("SELECT T.a FROM Tab T WHERE T.a IN (SELECT S.a, S.b FROM S)")
    with pytest.raises(MalformedSubqueryError):
        lower("SELECT T.a FROM Tab T WHERE EXISTS (SELECT * FROM S WHERE T.a IN (SELECT * FROM U))")


def test_lt_equal_modulo_renaming_across_schemas():
    sailors = lower(SAILORS_ONLY_RED)
    students = lower(STUDENTS_ONLY_ART)
    assert not lt_equal(sailors, students)
    assert lt_equal(sailors, students, modulo_renaming=True)


def test_lt_equal_distinguishes_patterns():
    no = lower(SAILORS_NO_RED)
    only = lower(SAILORS_ONLY_RED)
    all_ = lower(SAILORS_ALL_RED)
    for a, b in [(no, only), (no, all_), (only, all_)]:
        assert not lt_equal(a, b)
        assert not lt_equal(a, b, modulo_renaming=True)


def test_lt_equal_is_equivalence_relation_on_fixtures():
    trees = [lower(sql) for sql in VALID_QUERIES.values()]
    for modulo in (False, True):
        for t in trees:
            assert lt_equal(t, t, modulo)
        for a, b in itertools.combinations(trees, 2):
            assert lt_equal(a, b, modulo) == lt_equal(b, a, modulo)
        for a, b, c in itertools.combinations(trees, 3):
            if lt_equal(a, b, modulo) and lt_equal(b, c, modulo):
                assert lt_equal(a, c, modulo)


def test_children_compared_as_multisets():
    left = lower("SELECT T.a FROM Tab T WHERE EXISTS (SELECT * FROM R WHERE R.a = T.a) "
                 "AND NOT EXISTS (SELECT * FROM S WHERE S.b = T.a)")
    right = lower("SELECT T.a FROM Tab T WHERE NOT EXISTS (SELECT * FROM S WHERE S.b = T.a) "
                  "AND EXISTS (SELECT * FROM R WHERE R.a = T.a)")
    assert lt_equal(left, right)


def test_modulo_renaming_respects_constant_kinds():
    num = lower("SELECT T.a FROM Tab T WHERE T.a = 3")
    string = lower("SELECT T.a FROM Tab T WHERE T.a = 'three'")
    assert not lt_equal(num, string, modulo_renaming=True)


def test_json_quantifier_labels():
    text = lt_to_json(lower(ONLY_LIKED_DRINKS))
    assert text.count('"NOT_EXISTS"') == 2
    assert '"quantifier": "ROOT"' in text


def test_lt_to_sql_round_trips_through_pipeline():
    for name, sql in VALID_QUERIES.items():
        lt = lower(sql)
        again = lower(lt_to_sql(lt))
        assert lt_equal(lt, again), name


def test_lt_to_sql_unwinds_forall():
    lt = lower(ONLY_LIKED_DRINKS)
    sql = lt_to_sql(simplify_forall(lt))
    assert sql == (
        "SELECT F.person FROM Frequents F WHERE NOT EXISTS (SELECT * FROM Serves S "
        "WHERE F.bar = S.bar AND NOT EXISTS (SELECT * FROM Likes L "
        "WHERE F.person = L.person AND L.drink = S.drink))")
    assert lower(sql) == lt


def _join(lhs, op, rhs):
    return Predicate(ColumnRef(*lhs.split(".")), op, ColumnRef(*rhs.split(".")))


def _forall_under_forall(leaves):
    mid = make_node([("B", "Tb")], [_join("B.y", "=", "A.x")], Quantifier.FOR_ALL, leaves)
    top = make_node([("A", "Ta")], [_join("A.x", "=", "T.a")], Quantifier.FOR_ALL, [mid])
    root = make_node([("T", "Tab")], [], Quantifier.ROOT, [top])
    return LogicTree(root=root, select_list=(ColumnRef("T", "a"),))


def test_lt_to_sql_unwinds_forall_under_forall():
    leaf = make_node([("C", "Tc")], [_join("C.z", "<", "B.y")], Quantifier.EXISTS)
    assert lt_to_sql(_forall_under_forall([leaf])) == (
        "SELECT T.a FROM Tab T WHERE NOT EXISTS (SELECT * FROM Ta A WHERE A.x = T.a "
        "AND NOT EXISTS (SELECT * FROM Tb B WHERE A.x = B.y "
        "AND NOT EXISTS (SELECT * FROM Tc C WHERE B.y > C.z)))")


def test_lt_to_sql_rejects_forall_without_one_child():
    leaves = [make_node([(alias, "Tc")], [_join(f"{alias}.z", "<", "B.y")], Quantifier.EXISTS)
              for alias in ("C", "D")]
    for kids in ([], leaves):
        with pytest.raises(ValueError, match="forall node must have exactly one child"):
            lt_to_sql(_forall_under_forall(kids))


def test_build_logic_tree_requires_resolution():
    with pytest.raises(ValueError):
        build_logic_tree(parse("SELECT a FROM T"))


@pytest.mark.parametrize("sql", [
    "SELECT z FROM T",  # the root select list
    "SELECT T.a FROM T WHERE z = 1",  # a comparison, either side
    "SELECT T.a FROM T WHERE T.a = z",
    "SELECT T.a FROM T WHERE NOT EXISTS (SELECT * FROM S WHERE S.b < z)",
    "SELECT T.a FROM T WHERE z IN (SELECT S.b FROM S)",  # an IN column
    "SELECT T.a FROM T WHERE z < ANY (SELECT S.b FROM S)",  # an ANY column
    "SELECT T.a FROM T WHERE T.a IN (SELECT z FROM S)",  # a subquery's select list
    "SELECT T.a FROM T WHERE EXISTS (SELECT z FROM S WHERE S.b = T.a)",
])
def test_build_logic_tree_names_the_unqualified_column(sql):
    with pytest.raises(ValueError, match="column 'z' is unqualified; run resolve_scopes first"):
        build_logic_tree(parse(sql))
