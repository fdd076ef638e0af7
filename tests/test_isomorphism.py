"""The one renaming search behind `lt_equal(modulo_renaming=True)` and
`diagram_isomorphic`, checked against the reference diagram search in
`iso_reference.py` and against each other."""

import random
import time

from sqldiagram import (
    build_diagram,
    build_logic_tree,
    diagram_isomorphic,
    lt_equal,
    parse,
    resolve_scopes,
)
from sqldiagram.corpus import SCHEMA, random_logic_tree
from sqldiagram.logic import LogicTree, Predicate, Quantifier, make_node
from sqldiagram.sqlast import ColumnRef, Constant

from evaluate_reference import COMPARE_OPS
from iso_reference import reference_isomorphic


def lower(sql):
    return build_logic_tree(resolve_scopes(parse(sql)))


def _nodes(lt):
    stack = [lt.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _rebuild(lt, label=lambda kind, old: old, pred=lambda p: p,
             quantifier=lambda n: n.quantifier):
    """A copy of lt with every label passed through label(kind, old), every
    predicate through pred and every node's quantifier from quantifier."""
    def column(c):
        return ColumnRef(label("alias", c.alias), label("attr", c.attribute))

    def predicate(p):
        p = pred(p)
        rhs = column(p.rhs) if isinstance(p.rhs, ColumnRef) else Constant(
            p.rhs.kind, label("const", p.rhs.literal))
        return Predicate(column(p.lhs), p.op, rhs)

    def node(n):
        return make_node([(label("alias", a), label("table", t)) for a, t in n.tables],
                         [predicate(p) for p in n.predicates], quantifier(n),
                         [node(c) for c in n.children])

    return LogicTree(root=node(lt.root), select_list=tuple(column(c) for c in lt.select_list))


def relabelled(rng, lt):
    """The same tree under a seeded bijection of alias, table, attribute and
    constant labels onto fresh names, so the canonical orders change too."""
    names = {}

    def fresh(kind, old):
        if (kind, old) not in names:
            names[(kind, old)] = f"{kind[0].upper()}{rng.randrange(10 ** 6)}n{len(names)}"
        return names[(kind, old)]

    return _rebuild(lt, label=fresh)


def mutated(rng, lt):
    """The same tree with one seeded change: an operator, the quantifier of a
    non-root node, or a constant; a lone root without predicates has none to
    change and comes back as it is."""
    nodes = list(_nodes(lt))
    preds = [p for n in nodes for p in n.predicates]
    inner = [n for n in nodes if n is not lt.root]
    selections = [p for p in preds if isinstance(p.rhs, Constant)]
    kinds = ["op"] * bool(preds) + ["quantifier"] * bool(inner) + ["constant"] * bool(selections)
    kind = rng.choice(kinds) if kinds else None
    if kind is None:
        return lt
    if kind == "op":
        target = rng.choice(preds)
        op = rng.choice([o for o in sorted(COMPARE_OPS) if o != target.op])
        return _rebuild(lt, pred=lambda p: Predicate(p.lhs, op, p.rhs) if p is target else p)
    if kind == "quantifier":
        target = rng.choice(inner)
        flipped = {Quantifier.EXISTS: Quantifier.NOT_EXISTS,
                   Quantifier.NOT_EXISTS: Quantifier.EXISTS}
        return _rebuild(lt, quantifier=lambda n: flipped.get(n.quantifier, n.quantifier)
                        if n is target else n.quantifier)
    target = rng.choice(selections)
    literal = rng.choice([v for v in ("0", "1", "2", "3") if v != target.rhs.literal])
    return _rebuild(lt, pred=lambda p: Predicate(p.lhs, p.op, Constant(p.rhs.kind, literal))
                    if p is target else p)


def wide_tree(rng, k):
    """A root with k NOT EXISTS children, each with two children of its own
    (3k + 1 groups); every block joins its parent."""
    tables = sorted(SCHEMA)

    def col(alias, table):
        return ColumnRef(alias, rng.choice(SCHEMA[table]))

    root_table = rng.choice(tables)
    children = []
    for i in range(k):
        table = rng.choice(tables)
        grandchildren = []
        for j in range(2):
            g_table = rng.choice(tables)
            preds = [Predicate(col(f"G{i}x{j}", g_table), rng.choice(("=", "<", ">=")),
                               col(f"C{i}", table))]
            if rng.random() < 0.3:
                preds.append(Predicate(col(f"G{i}x{j}", g_table), "=",
                                       Constant("number", str(rng.randint(0, 9)))))
            grandchildren.append(make_node([(f"G{i}x{j}", g_table)], preds,
                                           rng.choice((Quantifier.EXISTS, Quantifier.NOT_EXISTS))))
        preds = [Predicate(col(f"C{i}", table), rng.choice(("=", "<>")), col("W", root_table))]
        children.append(make_node([(f"C{i}", table)], preds, Quantifier.NOT_EXISTS, grandchildren))
    root = make_node([("W", root_table)], [], Quantifier.ROOT, children)
    return LogicTree(root=root, select_list=(col("W", root_table),))


def test_predicate_orientation_is_backtracked():
    # The join T.x = T.y is stored with x first; its image S.q = S.p is
    # stored with p first.  Pairing the join first in stored order maps x to
    # p, which the selection on x then contradicts; only the other
    # orientation works.
    a = lower("SELECT T.a FROM R T WHERE T.x = T.y AND T.x = 1")
    b = lower("SELECT S.a FROM Q S WHERE S.q = S.p AND S.q = 1")
    assert lt_equal(a, b, modulo_renaming=True)
    assert lt_equal(b, a, modulo_renaming=True)
    da, db = build_diagram(a), build_diagram(b)
    assert diagram_isomorphic(da, db)
    assert diagram_isomorphic(db, da)
    assert reference_isomorphic(da, db)


def test_checks_agree_with_the_reference_on_random_pairs():
    rng = random.Random(2029)
    trees = [random_logic_tree(rng) for _ in range(701)]
    verdicts = {True: 0, False: 0}
    pairs = 0
    for lt, unrelated in zip(trees, trees[1:]):
        for other in (relabelled(rng, lt), relabelled(rng, mutated(rng, lt)), unrelated):
            pairs += 1
            for simplified in (False, True):
                da = build_diagram(lt, simplified=simplified)
                db = build_diagram(other, simplified=simplified)
                expected = reference_isomorphic(da, db)
                assert diagram_isomorphic(da, db) == expected, (lt, other, simplified)
                if not simplified:
                    assert lt_equal(lt, other, modulo_renaming=True) == expected, (lt, other)
                    verdicts[expected] += 1
    assert pairs >= 2000
    assert verdicts[True] >= 500 and verdicts[False] >= 500, verdicts


def test_wide_diagram_is_isomorphic_to_itself():
    rng = random.Random(9)
    lt = wide_tree(rng, 300)
    diagram = build_diagram(lt)
    assert len(diagram.groups) == 901
    start = time.perf_counter()
    assert diagram_isomorphic(diagram, diagram)
    assert time.perf_counter() - start < 1.0


def test_wide_tree_equals_its_relabelled_copy():
    rng = random.Random(9)
    lt = wide_tree(rng, 300)
    copy = relabelled(rng, lt)
    start = time.perf_counter()
    assert lt_equal(lt, copy, modulo_renaming=True)
    assert time.perf_counter() - start < 1.0
