"""The one renaming search behind `lt_equal(modulo_renaming=True)` and
`diagram_isomorphic`, checked against the reference diagram search in
`iso_reference.py` and against each other."""

import random
import time

import pytest

from sqldiagram import (
    build_diagram,
    build_logic_tree,
    diagram_isomorphic,
    lt_equal,
    parse,
    resolve_scopes,
)
from sqldiagram.corpus import SCHEMA, random_logic_tree
from sqldiagram.fixtures import VALID_QUERIES
from sqldiagram.logic import (LogicTree, LtNode, Predicate, Quantifier, _coded, _Relabeling,
                              make_node)
from sqldiagram.sqlast import ColumnRef, Constant

from evaluate_reference import COMPARE_OPS
from iso_reference import reference_isomorphic


def lower(sql):
    return build_logic_tree(resolve_scopes(parse(sql)))


@pytest.fixture
def pair_calls(monkeypatch):
    """A list that gains one entry for each label pairing either engine
    tries (each `_Relabeling.pair` call), the step that a search repeats."""
    calls = []
    pair = _Relabeling.pair

    def counted(self, *pairs):
        calls.append(pairs)
        return pair(self, *pairs)

    monkeypatch.setattr(_Relabeling, "pair", counted)
    return calls


def _nodes(lt):
    stack = [lt.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _rebuild(lt, label=lambda kind, old: old, pred=lambda p: p,
             quantifier=lambda n: n.quantifier, extra=lambda n: ()):
    """A copy of lt with every label passed through label(kind, old), every
    predicate through pred, every node's quantifier from quantifier and the
    predicates extra(n) added to every node n."""
    def column(c):
        return ColumnRef(label("alias", c.alias), label("attr", c.attribute))

    def predicate(p):
        p = pred(p)
        rhs = column(p.rhs) if isinstance(p.rhs, ColumnRef) else Constant(
            p.rhs.kind, label("const", p.rhs.literal))
        return Predicate(column(p.lhs), p.op, rhs)

    def node(n):
        return make_node([(label("alias", a), label("table", t)) for a, t in n.tables],
                         [predicate(p) for p in (*n.predicates, *extra(n))], quantifier(n),
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


def symmetric_tree(k, selections=()):
    """A root with k NOT EXISTS children that are alike up to their aliases,
    each joining the root with `=`; child i also selects `K{i}.color op
    'red'` for the i-th op of selections."""
    children = [make_node([(f"K{i}", "Boat")],
                          [Predicate(ColumnRef(f"K{i}", "bid"), "=", ColumnRef("P", "sid")),
                           *[Predicate(ColumnRef(f"K{i}", "color"), op, Constant("string", "red"))
                             for op in selections[i:i + 1]]],
                          Quantifier.NOT_EXISTS)
                for i in range(k)]
    root = make_node([("P", "Sailor")], [], Quantifier.ROOT, children)
    return LogicTree(root=root, select_list=(ColumnRef("P", "sname"),))


def with_one_lt(rng, lt):
    """The same tree with one seeded `=` predicate changed to `<`."""
    target = rng.choice([p for n in _nodes(lt) for p in n.predicates if p.op == "="])
    return _rebuild(lt, pred=lambda p: Predicate(p.lhs, "<", p.rhs) if p is target else p)


def joined_tree(n, ops=("=",), nested=True):
    """Sailor P joined by Boat K through `K.a{i} = P.b{i}` for i < n, the
    first len(ops) joins with ops in place of `=`.  K is the root's one NOT
    EXISTS child when nested, else the root's second table."""
    joins = [Predicate(ColumnRef("K", f"a{i}"), (*ops, *["="] * n)[i], ColumnRef("P", f"b{i}"))
             for i in range(n)]
    if nested:
        root = make_node([("P", "Sailor")], [], Quantifier.ROOT,
                         [make_node([("K", "Boat")], joins, Quantifier.NOT_EXISTS)])
    else:
        root = make_node([("K", "Boat"), ("P", "Sailor")], joins, Quantifier.ROOT)
    return LogicTree(root=root, select_list=(ColumnRef("P", "sname"),))


def grandchild_tree(joins):
    """A root declaring A and B, one NOT EXISTS child C{i} joining A for each
    entry of joins, and under each child one EXISTS grandchild joining its
    parent and the root alias that the entry names.  Every block sits where
    it sits in the other such trees, so all of them have equal subtree codes."""
    children = []
    for i, alias in enumerate(joins):
        child, grandchild = f"C{i}", f"G{i}"
        joined = make_node([(grandchild, "Boat")],
                           [Predicate(ColumnRef(grandchild, "bid"), "=", ColumnRef(child, "bid")),
                            Predicate(ColumnRef(grandchild, "color"), "=",
                                      ColumnRef(alias, "sname"))],
                           Quantifier.EXISTS)
        children.append(make_node([(child, "Reserves")],
                                  [Predicate(ColumnRef(child, "sid"), "=", ColumnRef("A", "sid"))],
                                  Quantifier.NOT_EXISTS, [joined]))
    root = make_node([("A", "Sailor"), ("B", "Sailor")], [], Quantifier.ROOT, children)
    return LogicTree(root=root, select_list=(ColumnRef("A", "sname"),))


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


def test_early_exits_agree_with_the_reference():
    # Each tree against three relabelled copies: itself, itself with one
    # more selection row, and itself with one EXISTS block made NOT EXISTS.
    # The last two change the diagram's shape and the root's code, which
    # both engines compare before they search.
    rng = random.Random(2030)
    trees = [lower(sql) for sql in VALID_QUERIES.values()]
    trees += [random_logic_tree(rng) for _ in range(150)]
    verdicts = {True: 0, False: 0}
    for lt in trees:
        nodes = list(_nodes(lt))
        target = rng.choice(nodes)
        selection = Predicate(ColumnRef(target.tables[0][0], "extra"), "=", Constant("number", "9"))
        copies = [lt, _rebuild(lt, extra=lambda n: (selection,) if n is target else ())]
        exists = [n for n in nodes if n.quantifier is Quantifier.EXISTS]
        if exists:
            flipped = rng.choice(exists)
            copies.append(_rebuild(lt, quantifier=lambda n: Quantifier.NOT_EXISTS
                                   if n is flipped else n.quantifier))
        for copy in copies:
            other = relabelled(rng, copy)
            for simplified in (False, True):
                da = build_diagram(lt, simplified=simplified)
                db = build_diagram(other, simplified=simplified)
                expected = reference_isomorphic(da, db)
                assert diagram_isomorphic(da, db) == expected, (lt, other, simplified)
                assert diagram_isomorphic(db, da) == expected, (lt, other, simplified)
            assert lt_equal(lt, other, modulo_renaming=True) == expected, (lt, other)
            assert lt_equal(other, lt, modulo_renaming=True) == expected, (lt, other)
            verdicts[expected] += 1
    assert verdicts[True] >= len(trees) and verdicts[False] >= len(trees) + 50, verdicts


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


@pytest.mark.parametrize("k", [8, 10, 12, 30])
def test_alike_siblings_cost_no_factorial_search(k, pair_calls):
    # Exhaustive pairing tries up to k! orders before it answers false; the
    # changed operator shows in the root's code, so no label is paired.
    # Pairing only children of equal code still tries (k - 1)! orders,
    # which k = 10 shows in seconds.  Against a relabelled copy each child
    # pairs on its first try: one pairing for the select list, one for the
    # root's table and at most three per child (its table, and its join in
    # one orientation or both).
    rng = random.Random(k)
    lt = symmetric_tree(k)
    other = relabelled(rng, with_one_lt(rng, lt))
    assert not lt_equal(lt, other, modulo_renaming=True)
    assert not lt_equal(other, lt, modulo_renaming=True)
    assert pair_calls == []
    other = relabelled(rng, lt)
    assert lt_equal(lt, other, modulo_renaming=True)
    assert lt_equal(other, lt, modulo_renaming=True)
    assert len(pair_calls) <= 2 * (2 + 3 * k)


@pytest.mark.parametrize("k", [8, 10])
def test_a_changed_box_costs_the_diagram_search_nothing(k, pair_calls):
    # One child's box gains a selection row, or one child's selection row
    # changes its operator; either shows in the diagrams' shapes, so no
    # pairing of the k alike children is tried.  The search alone took 164 ms
    # at k = 8 and grows factorially.
    rng = random.Random(k)
    for lt, changed in ((symmetric_tree(k), symmetric_tree(k, ("=",))),
                        (symmetric_tree(k, ("=",) * k),
                         symmetric_tree(k, ("<",) + ("=",) * (k - 1)))):
        da, db = build_diagram(lt), build_diagram(relabelled(rng, changed))
        assert not diagram_isomorphic(da, db)
        assert not diagram_isomorphic(db, da)
    assert pair_calls == []


@pytest.mark.parametrize("nested", [True, False], ids=["in_a_child", "at_the_root"])
def test_alike_joins_cost_no_factorial_search(nested, pair_calls):
    # Ten alike joins, one of them changed to `<`, which shows in the roots'
    # codes: the answer comes before the search pairs any label.  With the
    # joins in a lone child, the search alone took 70.6 ms at nine joins.
    rng = random.Random(10)
    lt = joined_tree(10, nested=nested)
    assert lt_equal(lt, relabelled(rng, lt), modulo_renaming=True)
    other = relabelled(rng, joined_tree(10, ("<",), nested))
    pair_calls.clear()
    assert not lt_equal(lt, other, modulo_renaming=True)
    assert not lt_equal(other, lt, modulo_renaming=True)
    assert pair_calls == []


def test_children_of_different_code_are_never_paired(pair_calls):
    # Two children each join the root by ten alike joins, the second one's
    # first join being `<`; the copy swaps the two children's aliases, so
    # each tree's first child is the other's second.  The roots' codes tie,
    # and pairing the first children would try the alike joins' orders
    # before failing (about two million pairings); their codes differ, so
    # they are never paired, and each call tries only the 24 pairings its
    # answer keeps: the select list, the root's table, and each child's
    # table and ten joins.
    def tree(ops):
        children = [make_node([(alias, "Boat")],
                              [Predicate(ColumnRef(alias, f"a{i}"), (*first, *["="] * 10)[i],
                                         ColumnRef("P", f"b{i}")) for i in range(10)],
                              Quantifier.NOT_EXISTS)
                    for alias, first in zip(("K0", "K1"), ops)]
        return LogicTree(root=make_node([("P", "Sailor")], [], Quantifier.ROOT, children),
                         select_list=(ColumnRef("P", "sname"),))

    lt, swapped = tree(((), ("<",))), tree((("<",), ()))
    assert lt_equal(lt, swapped, modulo_renaming=True)
    assert lt_equal(swapped, lt, modulo_renaming=True)
    assert len(pair_calls) == 2 * 24


def test_equal_codes_fall_back_to_the_exhaustive_search():
    rng = random.Random(5)
    mixed = grandchild_tree(["A", "B", "A"])
    for other in (grandchild_tree(["A", "A", "A"]), grandchild_tree(["B", "A", "A"]),
                  relabelled(rng, grandchild_tree(["A", "A", "B"]))):
        interned = {}
        assert _coded(mixed.root, interned)[0] == _coded(other.root, interned)[0]
        expected = reference_isomorphic(build_diagram(mixed), build_diagram(other))
        assert lt_equal(mixed, other, modulo_renaming=True) == expected
        assert lt_equal(other, mixed, modulo_renaming=True) == expected
    # All grandchildren joining A leave B unjoined, which no renaming of the
    # mixed tree does; B, A, A is the mixed tree with two children swapped.
    assert not lt_equal(mixed, grandchild_tree(["A", "A", "A"]), modulo_renaming=True)
    assert lt_equal(mixed, grandchild_tree(["B", "A", "A"]), modulo_renaming=True)


def test_a_grandchild_shared_by_alike_siblings_keeps_the_pruning(pair_calls):
    # One EXISTS grandchild object sits under all k children and joins only
    # the root, so it has one code on every path; the changed operator shows
    # in the root's code, and no label is paired, where the search would try
    # the children's k! orders.  Against a relabelled copy each child, and
    # the grandchild under it, pairs on its first try.
    k = 10
    rng = random.Random(k)
    shared = make_node([("G", "Boat")],
                       [Predicate(ColumnRef("G", "bid"), "=", ColumnRef("P", "sid"))],
                       Quantifier.EXISTS)
    children = [make_node([(f"K{i}", "Reserves")],
                          [Predicate(ColumnRef(f"K{i}", "sid"), "=", ColumnRef("P", "sid"))],
                          Quantifier.NOT_EXISTS, [shared])
                for i in range(k)]
    lt = LogicTree(root=make_node([("P", "Sailor")], [], Quantifier.ROOT, children),
                   select_list=(ColumnRef("P", "sname"),))
    target = lt.root.children[0].predicates[0]
    one_lt = relabelled(rng, _rebuild(lt, pred=lambda p: Predicate(p.lhs, "<", p.rhs)
                                      if p is target else p))
    assert not lt_equal(lt, one_lt, modulo_renaming=True)
    assert not lt_equal(one_lt, lt, modulo_renaming=True)
    assert pair_calls == []
    other = relabelled(rng, lt)
    assert lt_equal(lt, other, modulo_renaming=True)
    assert lt_equal(other, lt, modulo_renaming=True)
    assert len(pair_calls) <= 2 * (2 + 6 * k)


def test_a_grandchild_shared_under_two_codes_keeps_the_pruning(pair_calls):
    # One EXISTS grandchild object sits under all k NOT EXISTS children and
    # under a further EXISTS child, and joins X, which only that further
    # child declares: under the k children X is undeclared, so the one node
    # gets two codes.  Each occurrence is coded on its own, so the changed
    # operator shows in the root's code and no label is paired; a search
    # that dropped the pruning on such a tree tried 95 896 pairings at k = 8.
    k = 8
    rng = random.Random(k)
    shared = make_node([("G", "Boat")],
                       [Predicate(ColumnRef("G", "bid"), "=", ColumnRef("X", "bid"))],
                       Quantifier.EXISTS)
    children = [make_node([(f"K{i}", "Reserves")],
                          [Predicate(ColumnRef(f"K{i}", "sid"), "=", ColumnRef("P", "sid"))],
                          Quantifier.NOT_EXISTS, [shared])
                for i in range(k)]
    children.append(make_node([("X", "Reserves")],
                              [Predicate(ColumnRef("X", "sid"), "=", ColumnRef("P", "sid"))],
                              Quantifier.EXISTS, [shared]))
    lt = LogicTree(root=make_node([("P", "Sailor")], [], Quantifier.ROOT, children),
                   select_list=(ColumnRef("P", "sname"),))
    target = children[0].predicates[0]
    one_lt = relabelled(rng, _rebuild(lt, pred=lambda p: Predicate(p.lhs, "<", p.rhs)
                                      if p is target else p))
    assert not lt_equal(lt, one_lt, modulo_renaming=True)
    assert not lt_equal(one_lt, lt, modulo_renaming=True)
    assert pair_calls == []
    assert lt_equal(lt, relabelled(rng, lt), modulo_renaming=True)


def _hand_built(alias_of, shared=False):
    """A root T with three NOT EXISTS children; child i joins alias_of(i)
    and has two EXISTS children joining their parent.  shared puts one
    child's first grandchild under another child too."""
    children = []
    for i in range(3):
        own = alias_of(i)
        kids = [make_node([(f"G{i}{j}", "Boat")],
                          [Predicate(ColumnRef(f"G{i}{j}", "bid"), "=" if j else "<",
                                     ColumnRef(own, "bid"))], Quantifier.EXISTS)
                for j in range(2)]
        children.append(make_node([(own, "Reserves")],
                                  [Predicate(ColumnRef(own, "sid"), "=", ColumnRef("T", "sid")),
                                   Predicate(ColumnRef(own, "day"), "=", ColumnRef("U", "day"))],
                                  Quantifier.NOT_EXISTS, kids))
    if shared:
        first, second = children[0], children[1]
        children[1] = LtNode(second.tables, second.predicates, second.quantifier,
                             second.children + first.children[:1])
        children[0] = LtNode(first.tables, first.predicates, first.quantifier,
                             first.children + first.children[:1])
    root = make_node([("T", "Sailor")], [], Quantifier.ROOT, children)
    return LogicTree(root=root, select_list=(ColumnRef("T", "sname"),))


@pytest.mark.parametrize("alias_of, shared", [
    (lambda i: "T", False),  # every child redeclares the root's alias
    (lambda i: f"R{i}", False),
    (lambda i: "T" if i else "R0", True),
], ids=["repeated_alias", "distinct_aliases", "shared_grandchild"])
def test_hand_built_trees_keep_their_verdicts(alias_of, shared):
    # No block declares U, and in the first case a child's T hides the
    # root's; the codes resolve neither to a KeyError.
    rng = random.Random(11)
    lt = _hand_built(alias_of, shared)
    same = relabelled(rng, lt)
    target = next(p for p in lt.root.children[2].predicates if p.lhs.attribute == "day")
    flipped = _rebuild(lt, pred=lambda p: Predicate(p.lhs, "<>", p.rhs) if p is target else p)
    assert lt_equal(lt, same, modulo_renaming=True)
    assert lt_equal(same, lt, modulo_renaming=True)
    assert lt_equal(lt, lt, modulo_renaming=True)
    assert not lt_equal(lt, relabelled(rng, flipped), modulo_renaming=True)
    assert not lt_equal(relabelled(rng, flipped), lt, modulo_renaming=True)
