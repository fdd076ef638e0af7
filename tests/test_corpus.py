import random

from sqldiagram import (
    build_logic_tree,
    check_nondegenerate,
    lt_equal,
    lt_to_sql,
    parse,
    resolve_scopes,
)
from sqldiagram.corpus import random_logic_tree
from sqldiagram.logic import Quantifier

from evaluate_reference import random_database


def test_generated_trees_are_valid():
    rng = random.Random(1)
    for _ in range(100):
        lt = random_logic_tree(rng)
        report = check_nondegenerate(lt)
        assert report.ok, [str(v) for v in report.violations]
        assert max(len(path) for path, _, _ in lt.walk()) <= 3
        aliases = [a for _, node, _ in lt.walk() for a in node.aliases]
        assert len(aliases) == len(set(aliases))
        for _, node, _ in lt.walk():
            assert 1 <= len(node.tables) <= 2
            assert len(node.children) <= 3
            assert node.quantifier in (Quantifier.ROOT, Quantifier.EXISTS,
                                       Quantifier.NOT_EXISTS)


def test_generation_is_deterministic_per_seed():
    assert random_logic_tree(random.Random(5)) == random_logic_tree(random.Random(5))
    assert random_logic_tree(random.Random(5)) != random_logic_tree(random.Random(6))


def test_sql_round_trip_reproduces_tree():
    for seed in range(500):
        lt = random_logic_tree(random.Random(seed))
        reparsed = build_logic_tree(resolve_scopes(parse(lt_to_sql(lt))))
        assert lt_equal(lt, reparsed), seed
        assert reparsed == lt, seed  # canonical forms, aliases already unique


def test_random_database_shape():
    rng = random.Random(9)
    lt = random_logic_tree(rng)
    db = random_database(rng, lt)
    tables = {table for _, node, _ in lt.walk() for _, table in node.tables}
    assert set(db) == tables
    for rows in db.values():
        assert len(rows) <= 2
        for row in rows:
            assert all(v in (0, 1, 2) for v in row.values())
