import random
import re
import time

import pytest

from sqldiagram import lt_to_sql, parse, print_sql, resolve_scopes
from sqldiagram.corpus import random_logic_tree
from sqldiagram.errors import AmbiguousColumnError, UnknownAliasError
from sqldiagram.fixtures import ONLY_LIKED_DRINKS, ONLY_RED_NOT_ANY, ONLY_RED_NOT_IN, VALID_QUERIES
from sqldiagram.sqlast import ColumnRef, Comparison, Exists, QueryAst, TableRef


def _nodes(ast, path=""):
    """(path, node) for every block, table, column, predicate and operand, in
    document order; a subquery's path extends its predicate's."""
    yield path, ast
    yield from ((f"{path}/from{i}", t) for i, t in enumerate(ast.from_list))
    yield from ((f"{path}/select{i}", c) for i, c in enumerate(ast.select_list))
    for i, pred in enumerate(ast.where_clause):
        at = f"{path}/where{i}"
        yield at, pred
        if isinstance(pred, Comparison):
            yield f"{at}/lhs", pred.lhs
            yield f"{at}/rhs", pred.rhs
            continue
        if not isinstance(pred, Exists):
            yield f"{at}/column", pred.column
        yield from _nodes(pred.subquery, f"{at}/sub")


def _blocks(ast):
    """Every query block, each before its subqueries, in document order."""
    return [node for _, node in _nodes(ast) if isinstance(node, QueryAst)]


def _positions(ast):
    return [(path, node.line, node.column) for path, node in _nodes(ast)
            if isinstance(node, (ColumnRef, TableRef))]


def _aliases(ast):
    return [t.alias for block in _blocks(ast) for t in block.from_list]


def _tables_per_block(ast):
    return [sorted(t.table_name for t in block.from_list) for block in _blocks(ast)]


def test_nested_refs_resolve_through_scope_chain():
    ast = resolve_scopes(parse(ONLY_LIKED_DRINKS))
    (outer,) = ast.where_clause
    assert isinstance(outer, Exists)
    inner = [p for p in outer.subquery.where_clause if isinstance(p, Exists)][0]
    comparisons = [p for p in inner.subquery.where_clause if not isinstance(p, Exists)]
    aliases = {p.lhs.alias for p in comparisons} | {p.rhs.alias for p in comparisons}
    assert aliases == {"L", "F", "S"}  # refs reach depth 0 (F) and depth 1 (S)


def test_unknown_alias_with_location():
    with pytest.raises(UnknownAliasError) as exc:
        resolve_scopes(parse("SELECT T.a FROM Tab T WHERE T.a = X.b"))
    assert exc.value.alias == "X"
    assert (exc.value.line, exc.value.column) == (1, 35)


def test_sibling_block_reference_is_unknown():
    sql = ("SELECT T.a FROM Tab T WHERE EXISTS (SELECT U.b FROM Us U) "
           "AND EXISTS (SELECT V.c FROM Vs V WHERE V.c = U.b)")
    with pytest.raises(UnknownAliasError):
        resolve_scopes(parse(sql))


def test_unqualified_column_single_table():
    ast = resolve_scopes(parse("SELECT a FROM T"))
    assert ast.select_list[0].alias == "T"


def test_unqualified_column_ambiguous():
    with pytest.raises(AmbiguousColumnError):
        resolve_scopes(parse("SELECT a FROM T, S"))


def test_unqualified_column_ambiguous_has_position():
    sql = "SELECT T.a FROM T WHERE EXISTS (SELECT * FROM S\n  WHERE b = 1)"
    with pytest.raises(AmbiguousColumnError) as exc:
        resolve_scopes(parse(sql))
    assert (exc.value.line, exc.value.column) == (2, 9)
    assert str(exc.value) == "unqualified column 'b' with 2 tables in scope at line 2:9"


def test_duplicate_alias_same_block_rejected():
    with pytest.raises(AmbiguousColumnError):
        resolve_scopes(parse("SELECT L.a FROM Likes L, Serves L"))


def test_sibling_duplicate_aliases_renamed():
    sql = ("SELECT T.a FROM Tab T "
           "WHERE EXISTS (SELECT L.x FROM Likes L WHERE L.x = T.a) "
           "AND EXISTS (SELECT L.y FROM Likes L WHERE L.y = T.a)")
    resolved = resolve_scopes(parse(sql))
    assert _aliases(resolved) == ["T", "L", "L2"]
    subs = [p.subquery for p in resolved.where_clause]
    assert subs[0].from_list[0].alias == "L"
    assert subs[1].from_list[0].alias == "L2"
    assert subs[1].select_list[0].alias == "L2"
    # reparse of the printed form keeps aliases unique
    assert resolve_scopes(parse(print_sql(resolved))) == resolved


def test_shadowing_renamed_and_rebound():
    sql = ("SELECT L.a FROM Likes L "
           "WHERE EXISTS (SELECT L.b FROM Serves L WHERE L.b = 1)")
    resolved = resolve_scopes(parse(sql))
    assert _aliases(resolved) == ["L", "L2"]
    (sub,) = [p.subquery for p in resolved.where_clause]
    assert sub.from_list[0].alias == "L2"
    (pred,) = sub.where_clause
    assert pred.lhs.alias == "L2"  # inner L meant the inner declaration
    assert resolved.select_list[0].alias == "L"


def test_rename_suffix_skips_taken_names():
    sql = ("SELECT T.a FROM Tab T, Other L2 "
           "WHERE EXISTS (SELECT L.x FROM Likes L WHERE L.x = T.a) "
           "AND EXISTS (SELECT L.y FROM Likes L WHERE L.y = T.a)")
    assert _aliases(resolve_scopes(parse(sql))) == ["T", "L2", "L", "L3"]


def _siblings(names):
    """SELECT T.a FROM T <names[0]> WHERE EXISTS (SELECT * FROM S <name> WHERE
    <name>.a = <names[0]>.a) AND ... for each later name, built without
    parsing; its declarations in document order are `names`."""
    def ref(alias):
        return ColumnRef(alias=alias, attribute="a")
    return QueryAst(select_list=(ref(names[0]),), from_list=(TableRef("T", names[0]),),
                    where_clause=tuple(Exists(False, QueryAst(
                        select_list=(), from_list=(TableRef("S", name),),
                        where_clause=(Comparison(lhs=ref(name), op="=", rhs=ref(names[0])),)))
                        for name in names[1:]))


def _reference_finals(declared):
    """The renaming rule spelt out: each rename searches from suffix 2."""
    taken, used, finals = set(declared), set(), []
    for name in declared:
        final = name
        if name in used:
            suffix = 2
            while f"{name}{suffix}" in taken or f"{name}{suffix}" in used:
                suffix += 1
            final = f"{name}{suffix}"
        used.add(final)
        finals.append(final)
    return finals


def test_renaming_matches_the_reference_on_colliding_families():
    # L+12 and L1+2 spell the same name, and so on across the families
    rng = random.Random(20)
    pool = ["L", "L1", "L2", "L11", "L12", "L21", "L22", "M", "M2"]
    for _ in range(2000):
        declared = rng.choices(pool, k=rng.randint(1, 30))
        assert _aliases(resolve_scopes(_siblings(declared))) == _reference_finals(declared)


def test_renaming_many_siblings_takes_linear_time():
    names = ["T"] + ["L"] * 10_000
    ast = _siblings(names)
    began = time.perf_counter()
    resolved = resolve_scopes(ast)
    assert time.perf_counter() - began < 2.0
    assert _aliases(resolved) == ["T", "L"] + [f"L{i}" for i in range(2, 10_001)]


def test_idempotent_on_fixture_corpus():
    subqueries = {"not_in": ONLY_RED_NOT_IN, "not_any": ONLY_RED_NOT_ANY,
                  "all": "SELECT T.a FROM T WHERE T.a <> ALL (SELECT S.b FROM S WHERE S.c <> T.c)"}
    for name, sql in {**VALID_QUERIES, **subqueries}.items():
        once = resolve_scopes(parse(sql))
        assert resolve_scopes(once) is once, name


def test_table_multiset_per_block_unchanged():
    for name, sql in VALID_QUERIES.items():
        before = _tables_per_block(parse(sql))
        after = _tables_per_block(resolve_scopes(parse(sql)))
        assert before == after, name


def test_renaming_follows_document_order():
    sql = ("SELECT L.a FROM Likes L, T L2 "
           "WHERE EXISTS (SELECT * FROM S L WHERE EXISTS "
           "(SELECT * FROM U L WHERE L.x = L2.y)) "
           "AND EXISTS (SELECT * FROM V L3 WHERE L3.z = L.a)")
    resolved = resolve_scopes(parse(sql))
    assert _aliases(resolved) == ["L", "L2", "L4", "L5", "L3"]
    first, second = resolved.where_clause
    (innermost,) = first.subquery.where_clause[0].subquery.where_clause
    assert (innermost.lhs.alias, innermost.rhs.alias) == ("L5", "L2")
    (pred,) = second.subquery.where_clause
    assert (pred.lhs.alias, pred.rhs.alias) == ("L3", "L")


def test_resolution_properties_on_collapsed_aliases():
    # Generated queries with their aliases collapsed onto four names, so that
    # blocks shadow, repeat and collide with the numeric suffixes.
    rng = random.Random(909)
    names = ("L", "L2", "M", "T")
    resolved_count = rejected = 0
    for _ in range(500):
        sql = lt_to_sql(random_logic_tree(rng, max_nodes=rng.randint(1, 12)))
        mapping = {alias: rng.choice(names) for alias in sorted(set(re.findall(r"\bA\d+\b", sql)))}
        ast = parse(re.sub(r"\bA\d+\b", lambda m: mapping[m.group(0)], sql))
        try:
            resolved = resolve_scopes(ast)
        except AmbiguousColumnError:
            rejected += 1
            continue
        resolved_count += 1
        aliases = _aliases(resolved)
        assert len(set(aliases)) == len(aliases), sql
        assert ([[t.table_name for t in b.from_list] for b in _blocks(resolved)]
                == [[t.table_name for t in b.from_list] for b in _blocks(ast)]), sql
        assert resolve_scopes(resolved) is resolved, sql
        assert resolve_scopes(parse(print_sql(resolved))) == resolved, sql
        assert _positions(resolved) == _positions(ast), sql
    assert resolved_count > 0 and rejected > 0


def test_resolution_returns_a_resolved_ast_itself():
    # lt_to_sql qualifies every column and never repeats an alias, and neither
    # do the fixtures, so resolution has nothing to rename and builds nothing.
    rng = random.Random(1818)
    queries = [lt_to_sql(random_logic_tree(rng, max_nodes=rng.randint(1, 12)))
               for _ in range(500)]
    for sql in queries + list(VALID_QUERIES.values()):
        ast = parse(sql)
        assert resolve_scopes(ast) is ast, sql


def test_one_rename_rebuilds_only_the_path_to_its_block():
    sql = ("SELECT T.a FROM Tab T WHERE T.a = 1 "
           "AND EXISTS (SELECT L.x FROM Likes L WHERE L.x = T.a) "
           "AND EXISTS (SELECT U.y FROM Us U WHERE U.y = T.a "
           "AND EXISTS (SELECT L.z FROM Likes L WHERE L.z = U.y))")
    ast = parse(sql)
    resolved = resolve_scopes(ast)
    assert _aliases(resolved) == ["T", "L", "U", "L2"]
    new = [path for (path, before), (_, after) in zip(_nodes(ast), _nodes(resolved))
           if before is not after]
    assert new == ["", "/where2", "/where2/sub", "/where2/sub/where1", "/where2/sub/where1/sub",
                   "/where2/sub/where1/sub/from0", "/where2/sub/where1/sub/select0",
                   "/where2/sub/where1/sub/where0", "/where2/sub/where1/sub/where0/lhs"]
    assert resolved.where_clause[1].subquery is ast.where_clause[1].subquery


def test_resolved_refs_keep_their_source_positions():
    for sql in ("SELECT a FROM T WHERE b = 1 AND EXISTS (SELECT * FROM S WHERE S.c = T.d)",
                "SELECT L.a FROM Likes AS L WHERE EXISTS (SELECT * FROM Serves L\n"
                "  WHERE L.b = 1 AND NOT L.c = ANY (SELECT L.d FROM Bars L))"):
        ast = parse(sql)
        assert _positions(resolve_scopes(ast)) == _positions(ast), sql
