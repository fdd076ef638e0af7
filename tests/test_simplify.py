import random

from sqldiagram import Quantifier, render_trc, simplify_forall
from sqldiagram.corpus import random_logic_tree
from sqldiagram.fixtures import ONLY_LIKED_DRINKS, UNIQUE_BEER_SET

from evaluate_reference import evaluate, random_database
from graphs import lower


def quantifiers_by_alias(lt):
    return {alias: node.quantifier for _, node, _ in lt.walk() for alias in node.aliases}


def test_nested_pair_becomes_forall_exists():
    simplified = simplify_forall(lower(ONLY_LIKED_DRINKS))
    q = quantifiers_by_alias(simplified)
    assert q["S"] is Quantifier.FOR_ALL
    assert q["L"] is Quantifier.EXISTS


def test_flat_tree_unchanged():
    lt = lower("SELECT T.a FROM Tab T WHERE T.a = 1")
    assert simplify_forall(lt) == lt


def test_exists_chain_unchanged():
    lt = lower("SELECT T.a FROM Tab T WHERE EXISTS "
               "(SELECT * FROM S WHERE S.b = T.a AND EXISTS "
               "(SELECT * FROM U WHERE U.c = S.b))")
    assert simplify_forall(lt) == lt


def test_triple_chain_rewrites_outermost_pair_first():
    sql = ("SELECT A.x FROM TA A WHERE NOT EXISTS (SELECT * FROM TB B WHERE B.x = A.x"
           " AND NOT EXISTS (SELECT * FROM TC C WHERE C.x = B.x"
           " AND NOT EXISTS (SELECT * FROM TD D WHERE D.x = C.x)))")
    q = quantifiers_by_alias(simplify_forall(lower(sql)))
    assert q["B"] is Quantifier.FOR_ALL
    assert q["C"] is Quantifier.EXISTS
    assert q["D"] is Quantifier.NOT_EXISTS  # the exists node above blocks the pair


def test_idempotent_and_shape_preserving():
    rng = random.Random(11)
    for _ in range(25):
        lt = random_logic_tree(rng)
        simplified = simplify_forall(lt)
        assert simplify_forall(simplified) == simplified
        before = [(path, node.tables, node.predicates) for path, node, _ in lt.walk()]
        after = [(path, node.tables, node.predicates) for path, node, _ in simplified.walk()]
        assert before == after


def test_rewrite_shares_every_subtree_it_leaves_unchanged():
    lt = lower("SELECT T.a FROM Tab T WHERE T.a = 1")
    assert simplify_forall(lt).root is lt.root
    rng = random.Random(18)
    for _ in range(200):
        lt = random_logic_tree(rng)
        pairs = zip(lt.walk(), simplify_forall(lt).walk())
        assert all((a is b) == (a == b) for (_, a, _), (_, b, _) in pairs)


def test_semantics_preserved_on_random_trees():
    # three-row instances over a three-value domain, per the module contract
    rng = random.Random(23)
    for _ in range(40):
        lt = random_logic_tree(rng)
        simplified = simplify_forall(lt)
        for _ in range(12):
            db = random_database(rng, lt, max_rows=3)
            assert evaluate(lt, db) == evaluate(simplified, db)


def test_trc_structure_plain_and_simplified():
    lt = lower(UNIQUE_BEER_SET)
    plain = render_trc(lt)
    assert plain.startswith("{Q | ∃L1 ∈ Likes [L1.drinker = Q.drinker")
    assert plain.count("¬∃") == 5  # five not-exists blocks
    assert "∀" not in plain
    simplified = render_trc(simplify_forall(lt))
    assert simplified.count("∀") == 2
    assert simplified.count("¬∃") == 1
    assert simplified.count("→") == 2  # forall bodies print an implication
    assert "∀L3 ∈ Likes [L2.drinker = L3.drinker → ∃L4 ∈ Likes" in simplified


def test_trc_single_table():
    text = render_trc(lower("SELECT T.a FROM Tab T"))
    assert text == "{Q | ∃T ∈ Tab [T.a = Q.a]}"


def test_trc_deterministic():
    lt = simplify_forall(lower(UNIQUE_BEER_SET))
    assert render_trc(lt) == render_trc(lt)
