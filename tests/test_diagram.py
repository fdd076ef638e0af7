import itertools
import json
import random
import time

from sqldiagram import (
    Quantifier,
    arrow_points,
    build_diagram,
    build_logic_tree,
    count_elements,
    count_words,
    diagram_from_json,
    diagram_isomorphic,
    diagram_to_json,
    emit_dot,
    orient_inequality,
    parse,
    reading_order,
    resolve_scopes,
)
from sqldiagram.corpus import random_logic_tree
from sqldiagram.diagram import AttributeRow, Diagram, Edge, SelectionRow, TableBox, TableGroup
from sqldiagram.errors import DegenerateQueryError, InvalidDiagramError
from sqldiagram.fixtures import (
    ONLY_LIKED_DRINKS,
    OWL_SELECTION_BURIED,
    PATTERN_GRID,
    SAILORS_NO_RED,
    SOME_LIKED_DRINK,
    UNIQUE_BEER_SET,
    VALID_QUERIES,
)
from sqldiagram.logic import LogicTree, Predicate, make_node
from sqldiagram.sqlast import FLIPPED_OP, ColumnRef, Constant

import pytest

from evaluate_reference import compare
from graphs import small_queries
from reading_order_reference import reference_reading_order


def diagram_of(sql, **kwargs):
    return build_diagram(build_logic_tree(resolve_scopes(parse(sql))), **kwargs)


# -- arrow rule ---------------------------------------------------------------


def test_arrow_points_cases():
    # depth pair -> the one (source, target) order the arrow may take, None
    # when neither may (equal depths give an undirected edge)
    arrows = {(0, 0): None, (0, 1): (0, 1), (1, 0): (0, 1), (2, 3): (2, 3),
              (2, 0): (2, 0), (3, 0): (3, 0), (3, 1): (3, 1)}
    for (a, b), arrow in arrows.items():
        assert arrow_points(a, b) == ((a, b) == arrow), (a, b)
        assert arrow_points(b, a) == ((b, a) == arrow), (b, a)


def test_orient_inequality_flips_operator_with_operand_swap():
    # A.attr1 > B.attr2 with B the parent (depths 1, 0): arrow must be B->A,
    # so the edge reads B.attr2 < A.attr1
    pred = Predicate(lhs=ColumnRef("A", "attr1"), op=">", rhs=ColumnRef("B", "attr2"))
    edge = orient_inequality(pred, {"A": 1, "B": 0})
    assert edge.src == ("B", "attr2")
    assert edge.dst == ("A", "attr1")
    assert edge.label == "<"
    assert edge.directed


def test_orient_equijoin_never_labeled():
    pred = Predicate(lhs=ColumnRef("A", "x"), op="=", rhs=ColumnRef("B", "y"))
    edge = orient_inequality(pred, {"A": 0, "B": 1})
    assert edge.label is None and edge.src == ("A", "x")


def test_orient_deeper_source_no_flip():
    # S.x <= T.y with S two levels deeper: arrow S->T keeps operand order
    pred = Predicate(lhs=ColumnRef("S", "x"), op="<=", rhs=ColumnRef("T", "y"))
    edge = orient_inequality(pred, {"S": 2, "T": 0})
    assert edge.src == ("S", "x") and edge.dst == ("T", "y") and edge.label == "<="


@pytest.mark.parametrize("simplified", [False, True], ids=["raw", "simplified"])
@pytest.mark.parametrize("op, escaped", [("<", "&lt;"), ("<=", "&lt;=")])
def test_a_self_comparison_keeps_its_operator(op, escaped, simplified):
    # both ends are one row, so no operand order is preferred and no swap
    # may mirror the operator
    d = diagram_of(f"SELECT A.y FROM T A WHERE A.x {op} A.x", simplified=simplified)
    assert f'  t_A:p_1 -> t_A:p_1 [dir=none, label="{escaped}"];' in emit_dot(d).splitlines()
    assert json.loads(diagram_to_json(d))["edges"][0] == {
        "from": ["A", "x"], "to": ["A", "x"], "directed": False, "label": op}


def test_edge_relation_equivalent_to_predicate_all_cases():
    # enumerate operand order x depths x operator; the edge read from
    # source to target must state the same relation as the predicate
    values = [0, 1, 2]
    cases = [{"P": 0, "Q": 1}, {"P": 2, "Q": 0}, {"P": 1, "Q": 1}]
    for depths in cases:
        for op in ("<", "<=", "=", "<>", ">=", ">"):
            for lhs_alias, rhs_alias in (("P", "Q"), ("Q", "P")):
                pred = Predicate(lhs=ColumnRef(lhs_alias, "v"), op=op,
                                 rhs=ColumnRef(rhs_alias, "v"))
                edge = orient_inequality(pred, depths)
                for a, b in itertools.product(values, repeat=2):
                    env = {lhs_alias: a, rhs_alias: b}
                    original = compare(env[lhs_alias], op, env[rhs_alias])
                    via_edge = compare(env[edge.src[0]], edge.label or "=",
                                       env[edge.dst[0]])
                    assert original == via_edge, (depths, op, lhs_alias, a, b)


# -- construction -------------------------------------------------------------


def test_conjunctive_diagram():
    d = diagram_of(SOME_LIKED_DRINK)
    assert len(d.boxes()) == 3
    assert len(d.groups) == 1  # one root group holds all three boxes
    assert all(not g.boxed for g in d.groups)
    assert len(d.edges) == 3
    assert all(not e.directed and e.label is None for e in d.edges)
    assert d.select_box == (("F", "person"),)


def test_nested_diagram_groups_and_styles():
    raw = diagram_of(ONLY_LIKED_DRINKS, simplified=False)
    assert [g.quantifier for g in raw.groups] == [
        Quantifier.ROOT, Quantifier.NOT_EXISTS, Quantifier.NOT_EXISTS]
    assert [g.boxed for g in raw.groups] == [False, True, True]
    simplified = diagram_of(ONLY_LIKED_DRINKS)
    assert [g.quantifier for g in simplified.groups] == [
        Quantifier.ROOT, Quantifier.FOR_ALL, Quantifier.EXISTS]
    assert [g.boxed for g in simplified.groups] == [False, True, False]
    # group tree isomorphic to the logic tree
    assert [(g.depth, g.parent) for g in simplified.groups] == [
        (0, None), (1, "g0_1"), (2, "g1_1")]


def test_unique_set_diagram_edges():
    d = diagram_of(UNIQUE_BEER_SET)
    assert len(d.boxes()) == 6
    edge_view = {(e.src[0], e.dst[0]): e.label for e in d.edges}
    assert edge_view == {
        ("L1", "L2"): "<>",
        ("L2", "L3"): None,
        ("L3", "L4"): None,
        ("L4", "L1"): None,
        ("L5", "L6"): None,
        ("L5", "L1"): None,
        ("L6", "L2"): None,
    }
    assert all(e.directed for e in d.edges)
    assert d.select_box == (("L1", "drinker"),)


def test_row_ordering_and_selection_rows():
    d = diagram_of("SELECT T.a FROM Tab T, Sab S "
                   "WHERE T.z = S.z AND T.a = S.b AND T.m = 'x'")
    (box_s, box_t) = sorted(d.boxes(), key=lambda b: b.alias)
    assert box_t.rows == (AttributeRow("a"), AttributeRow("z"),
                          SelectionRow("m", "=", Constant("string", "x")))
    assert box_s.rows == (AttributeRow("b"), AttributeRow("z"))


def test_attribute_used_twice_gets_one_row():
    d = diagram_of("SELECT T.a FROM Tab T, Sab S, Rab R "
                   "WHERE T.a = S.b AND T.a = R.c")
    (box_t,) = [b for b in d.boxes() if b.alias == "T"]
    assert box_t.rows == (AttributeRow("a"),)
    assert len([e for e in d.edges if e.src[0] == "T" or e.dst[0] == "T"]) == 2


def test_minimal_diagram():
    d = diagram_of("SELECT T.a FROM Tab T")
    assert len(d.boxes()) == 1
    assert d.edges == ()
    assert d.select_box == (("T", "a"),)
    assert count_elements(d) == 5  # 2 boxes + 2 rows + 1 link


def test_degenerate_rejected_unless_overridden():
    with pytest.raises(DegenerateQueryError):
        diagram_of(OWL_SELECTION_BURIED)
    d = diagram_of(OWL_SELECTION_BURIED, allow_invalid=True)
    assert len(d.groups) == 2


def test_determinism():
    a = diagram_of(UNIQUE_BEER_SET)
    b = diagram_of(UNIQUE_BEER_SET)
    assert a == b
    assert diagram_to_json(a) == diagram_to_json(b)


# -- reading order ------------------------------------------------------------


def test_reading_order_unique_set():
    d = diagram_of(UNIQUE_BEER_SET)
    order = reading_order(d)
    aliases = {g.id: g.tables[0].alias for g in d.groups}
    assert [aliases[g] for g in order.visit_order] == ["L1", "L2", "L3", "L4", "L5", "L6"]
    assert [aliases[g] for g in order.restarts] == ["L5"]
    assert order.steps[0] == ("select", "SELECT")


def test_reading_order_single_group():
    order = reading_order(diagram_of(SOME_LIKED_DRINK))
    assert order.visit_order == ("g0_1",)
    assert order.restarts == ()


def test_reading_order_simplified_nested_no_restart():
    order = reading_order(diagram_of(ONLY_LIKED_DRINKS))
    assert order.visit_order == ("g0_1", "g1_1", "g2_1")
    assert order.restarts == ()


def test_reading_order_visits_each_group_once_with_valid_restarts():
    rng = random.Random(99)
    for _ in range(80):
        lt = random_logic_tree(rng)
        d = build_diagram(lt)
        order = reading_order(d)
        assert sorted(order.visit_order) == sorted(g.id for g in d.groups)
        # replay: a restart must pick an unvisited group without unvisited
        # incoming edges whenever one exists
        group_of = {b.alias: g.id for g in d.groups for b in g.tables}
        incoming: dict[str, set[str]] = {g.id: set() for g in d.groups}
        for e in d.edges:
            s, t = group_of[e.src[0]], group_of[e.dst[0]]
            if s != t and e.directed:
                incoming[t].add(s)
        visited = set()
        for step in order.steps:
            if step[0] == "restart":
                unvisited = [g.id for g in d.groups if g.id not in visited]
                eligible = [g for g in unvisited if not (incoming[g] - visited)]
                if eligible:
                    assert step[1] == eligible[0]
            elif step[0] == "enter":
                visited.add(step[1])


# -- metrics -------------------------------------------------------------------


def test_count_words():
    assert count_words("SELECT T.a FROM T") == 4
    assert count_words(SOME_LIKED_DRINK) == 21


def test_verbosity_growth_ordering():
    plain = diagram_of(SOME_LIKED_DRINK)
    nested_raw = diagram_of(ONLY_LIKED_DRINKS, simplified=False)
    nested = diagram_of(ONLY_LIKED_DRINKS)
    e_plain, e_raw, e_simp = map(count_elements, (plain, nested_raw, nested))
    assert e_simp <= e_raw
    element_growth = e_simp / e_plain
    word_growth = count_words(ONLY_LIKED_DRINKS) / count_words(SOME_LIKED_DRINK)
    assert element_growth < word_growth


# -- JSON and isomorphism --------------------------------------------------------


def test_one_edge_per_join_predicate_on_corpus():
    rng = random.Random(31)
    for _ in range(40):
        lt = random_logic_tree(rng)
        join_count = sum(
            1 for _, node, _ in lt.walk() for p in node.predicates
            if not isinstance(p.rhs, Constant))
        assert len(build_diagram(lt).edges) == join_count


def test_group_tree_isomorphic_to_logic_tree_on_corpus():
    rng = random.Random(32)
    for simplified in (False, True):
        for _ in range(30):
            lt = random_logic_tree(rng)
            from sqldiagram import simplify_forall

            reference = simplify_forall(lt) if simplified else lt
            d = build_diagram(lt, simplified=simplified)
            by_alias_group = {b.alias: g for g in d.groups for b in g.tables}
            for _, node, parent in reference.walk():
                group = by_alias_group[node.aliases[0]]
                assert group.quantifier is node.quantifier
                assert tuple(sorted(b.alias for b in group.tables)) == node.aliases
                if parent is None:
                    assert group.parent is None
                else:
                    assert group.parent == by_alias_group[parent.aliases[0]].id


def _wide_tree(k):
    """A root with k NOT EXISTS children, each with two children of its own
    (3k + 1 groups), drawn from few table and attribute names, so most rows
    repeat an attribute name seen before."""
    def col(alias, attribute):
        return ColumnRef(alias=alias, attribute=attribute)

    children = []
    for i in range(k):
        grandchildren = [
            make_node([(f"G{i}x{j}", "S")],
                      [Predicate(col(f"G{i}x{j}", "a"), ("=", "<")[j], col(f"C{i}", "b")),
                       Predicate(col(f"G{i}x{j}", "c"), "=",
                                 Constant(kind="string", literal=f"é'{i % 7}"))],
                      (Quantifier.EXISTS, Quantifier.NOT_EXISTS)[j])
            for j in range(2)]
        children.append(make_node([(f"C{i}", "R")],
                                  [Predicate(col(f"C{i}", "b"), "<>", col("W", "a"))],
                                  Quantifier.NOT_EXISTS, grandchildren))
    root = make_node([("W", "R")], [], Quantifier.ROOT, children)
    return LogicTree(root=root, select_list=(col("W", "a"),))


def _round_trip_inputs():
    for name, sql in VALID_QUERIES.items():
        yield name, diagram_of(sql)
    rng = random.Random(12)
    for i in range(200):
        yield f"random{i}", build_diagram(random_logic_tree(rng), simplified=i % 2 == 0)
    yield "wide301", build_diagram(_wide_tree(100))


def test_json_round_trip_identity():
    sizes = []
    for name, d in _round_trip_inputs():
        text = diagram_to_json(d)
        back = diagram_from_json(text)
        assert back == d, name
        assert diagram_to_json(back) == text, name
        sizes.append(len(d.groups))
    assert len(sizes) == 213 and max(sizes) == 301


def _values(d):
    """Every group, box, row and edge of a diagram."""
    for group in d.groups:
        yield group
        for box in group.tables:
            yield box
            yield from box.rows
    yield from d.edges


def test_loaded_values_are_whole_immutable_named_tuples():
    # the loader builds them with tuple.__new__, which checks neither the
    # class nor the number of fields
    kinds = set()
    for name, built in _round_trip_inputs():
        if name.startswith("random"):
            continue
        for value, twin in zip(_values(diagram_from_json(diagram_to_json(built))), _values(built),
                               strict=True):
            kinds.add(type(value))
            assert type(value) is type(twin) and len(value) == len(type(value)._fields), name
            assert value == twin and hash(value) == hash(twin), name
            with pytest.raises(AttributeError):
                setattr(value, type(value)._fields[0], None)
    assert kinds == {TableGroup, TableBox, AttributeRow, SelectionRow, Edge}


@pytest.mark.parametrize("rows", [["sid"], ["sname", "sname"], "sname", 5])
def test_json_select_rows_must_be_the_linked_attributes(rows):
    doc = json.loads(diagram_to_json(diagram_of(SAILORS_NO_RED)))
    doc["select_box"]["rows"] = rows
    with pytest.raises(ValueError, match="are not the linked attributes"):
        diagram_from_json(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("from", ["SELECT", "sid"]), ("directed", True), ("directed", 0), ("label", "<")])
def test_json_select_edge_must_be_an_undirected_unlabelled_row_link(field, value):
    doc = json.loads(diagram_to_json(diagram_of(SAILORS_NO_RED)))
    (edge,) = [e for e in doc["edges"] if e["from"][0] == "SELECT"]
    edge[field] = value
    with pytest.raises(ValueError, match="SELECT edge to"):
        diagram_from_json(json.dumps(doc))


def test_json_counts_unique_set():
    doc = json.loads(diagram_to_json(diagram_of(UNIQUE_BEER_SET)))
    assert len(doc["groups"]) == 6
    assert len(doc["edges"]) == 8  # seven joins plus the select link


def test_json_quantifier_labels():
    text = diagram_to_json(diagram_of(ONLY_LIKED_DRINKS, simplified=False))
    assert text.count('"quantifier": "NOT_EXISTS"') == 2


def test_isomorphism_within_and_across_columns():
    diagrams = {name: [diagram_of(sql) for sql in column]
                for name, column in PATTERN_GRID.items()}
    for name, ds in diagrams.items():
        for a, b in itertools.combinations(ds, 2):
            assert diagram_isomorphic(a, b), name
    for left, right in itertools.combinations(diagrams, 2):
        for a in diagrams[left]:
            for b in diagrams[right]:
                assert not diagram_isomorphic(a, b), (left, right)


def test_isomorphism_is_not_fooled_by_quantifiers():
    raw = diagram_of(ONLY_LIKED_DRINKS, simplified=False)
    simplified = diagram_of(ONLY_LIKED_DRINKS)
    assert not diagram_isomorphic(raw, simplified)
    assert diagram_isomorphic(raw, raw)


def test_isomorphism_ignores_the_stored_order_of_edges():
    # the other diagram's edges reversed, each undirected one stored the other
    # way round with its operator mirrored
    def flip(e):
        if e.directed:
            return e
        return e._replace(src=e.dst, dst=e.src, label=e.label and FLIPPED_OP[e.label])

    flipped_labels = 0
    for name, d in _round_trip_inputs():
        other = Diagram(d.groups, tuple(map(flip, reversed(d.edges))), d.select_box)
        assert diagram_isomorphic(d, other) and diagram_isomorphic(other, d), name
        flipped_labels += sum(not e.directed and e.label is not None for e in d.edges)
    assert flipped_labels > 0


def _relabel(lt):
    """Consistent renaming of every alias, table, attribute and constant."""
    from dataclasses import replace

    aliases, tables, attrs, consts = {}, {}, {}, {}

    def fresh(mapping, prefix, value):
        return mapping.setdefault(value, f"{prefix}{len(mapping)}")

    def column(col):
        return ColumnRef(alias=fresh(aliases, "Z", col.alias),
                         attribute=fresh(attrs, "f", col.attribute))

    def node(n):
        new_tables = [(fresh(aliases, "Z", a), fresh(tables, "Rel", t)) for a, t in n.tables]
        preds = []
        for p in n.predicates:
            if isinstance(p.rhs, Constant):
                rhs = Constant(kind=p.rhs.kind,
                               literal=fresh(consts, "k", p.rhs.literal))
            else:
                rhs = column(p.rhs)
            preds.append(Predicate(lhs=column(p.lhs), op=p.op, rhs=rhs))
        return make_node(new_tables, preds, n.quantifier, [node(c) for c in n.children])

    new_root = node(lt.root)
    return LogicTree(root=new_root, select_list=tuple(column(c) for c in lt.select_list))


def test_isomorphism_under_random_relabeling():
    rng = random.Random(55)
    previous = None
    for _ in range(25):
        lt = random_logic_tree(rng)
        original = build_diagram(lt)
        renamed = build_diagram(_relabel(lt))
        assert diagram_isomorphic(original, renamed)
        assert diagram_isomorphic(renamed, original)
        if previous is not None and len(previous.groups) != len(original.groups):
            assert not diagram_isomorphic(previous, original)
        previous = original


def test_reading_order_does_not_follow_an_undirected_edge_between_groups():
    # sibling blocks joined to each other, which the scope rule keeps out of
    # every query: the edge between their groups is undirected, not an arrow
    a, b, c = (ColumnRef(alias=alias, attribute="k") for alias in "ABC")
    root = make_node([("A", "TA")], [], Quantifier.ROOT, [
        make_node([("B", "TB")], [Predicate(lhs=b, op="=", rhs=a)], Quantifier.NOT_EXISTS),
        make_node([("C", "TC")], [Predicate(lhs=c, op="=", rhs=b)], Quantifier.NOT_EXISTS)])
    d = build_diagram(LogicTree(root=root, select_list=(a,)), allow_invalid=True)
    (undirected,) = [e for e in d.edges if not e.directed]
    assert (undirected.src[0], undirected.dst[0]) == ("B", "C")
    assert reading_order(d).steps == (
        ("select", "SELECT"), ("enter", "g0_1"), ("follow", "g0_1", "g1_1"),
        ("enter", "g1_1"), ("restart", "g1_2"), ("enter", "g1_2"))


def test_reading_order_falls_back_deterministically_on_source_free_cycle():
    # the depth-1 group joins nothing above it and a grandchild points back
    # at it: the directed group graph is a cycle with no restart source
    sql = ("SELECT A.x FROM TA A WHERE NOT EXISTS (SELECT * FROM TB B WHERE NOT EXISTS"
           " (SELECT * FROM TC C WHERE C.x = B.x AND C.y = A.y AND NOT EXISTS"
           " (SELECT * FROM TD D WHERE D.x = C.x AND D.y = B.y)))")
    d = diagram_of(sql)
    order = reading_order(d)
    assert order.visit_order == ("g0_1", "g1_1", "g2_1", "g3_1")
    assert order.restarts == ("g1_1",)  # canonical first unvisited group
    assert reading_order(d) == order


def _bare_diagram(boxes, edges):
    """Groups g0, g1, ... where group i holds boxes[i] boxes A<i>_<j>, each
    with one row k, and one edge per (src alias, dst alias, directed) in
    `edges`; any edges at all, unlike a query's.  Depths and parents are
    placeholders: the reading order reads neither."""
    groups = tuple(TableGroup(f"g{i}", Quantifier.EXISTS if i else Quantifier.ROOT, min(i, 1),
                              "g0" if i else None,
                              tuple(TableBox(f"A{i}_{j}", "T", (AttributeRow("k"),))
                                    for j in range(count)))
                   for i, count in enumerate(boxes))
    return Diagram(groups, tuple(Edge((src, "k"), (dst, "k"), directed, None)
                                 for src, dst, directed in edges), (("A0_0", "k"),))


def test_reading_order_follows_a_long_chain_of_arrows_without_recursing():
    # 5 000 groups, each with one arrow to the next: deeper than the
    # interpreter's default recursion limit
    n = 5000
    order = reading_order(_bare_diagram([1] * n, [(f"A{i}_0", f"A{i + 1}_0", True)
                                                  for i in range(n - 1)]))
    assert order.visit_order == tuple(f"g{i}" for i in range(n))
    assert order.restarts == ()


def test_reading_order_matches_the_reference_on_small_queries():
    for lt in small_queries(5):
        d = build_diagram(lt, simplified=False, allow_invalid=True)
        assert reading_order(d) == reference_reading_order(d)


def test_reading_order_matches_the_reference_on_any_edges():
    # cycles, self-loops and undirected edges between groups, which no query draws
    rng = random.Random(20)
    restarts = 0
    for _ in range(5000):
        boxes = [rng.randint(1, 2) for _ in range(rng.randint(1, 9))]
        aliases = [f"A{i}_{j}" for i, count in enumerate(boxes) for j in range(count)]
        edges = [(rng.choice(aliases), rng.choice(aliases), rng.random() < 0.8)
                 for _ in range(rng.randint(0, 2 * len(boxes)))]
        d = _bare_diagram(boxes, edges)
        order = reading_order(d)
        assert order == reference_reading_order(d)
        restarts += len(order.restarts)
    assert restarts > 5000


@pytest.mark.parametrize("arrows, restarts", [
    (lambda i: (), 19_999),
    (lambda i: ((f"A{i ^ 1}_0", f"A{i}_0", True),), 9_999),
], ids=["no arrows", "two-group cycles"])
def test_reading_order_restarts_in_linear_time(arrows, restarts):
    n = 20_000
    d = _bare_diagram([1] * n, [edge for i in range(n) for edge in arrows(i)])
    began = time.perf_counter()
    order = reading_order(d)
    assert time.perf_counter() - began < 1.0
    assert len(order.restarts) == restarts
    assert len(order.visit_order) == n


def test_reading_order_of_a_diagram_without_groups_is_the_select_box():
    assert reading_order(Diagram((), (), ())).steps == (("select", "SELECT"),)


def _forest(*roots):
    """A diagram of one root group per row list, each with one box of
    table T whose alias is the group's index."""
    return Diagram(tuple(TableGroup(f"g{i}", Quantifier.ROOT, 0, None,
                                    (TableBox(f"A{i}", "T", tuple(map(AttributeRow, rows))),))
                         for i, rows in enumerate(roots)), (), ())


def test_isomorphism_pairs_every_root():
    # the second roots differ: one row against two
    assert not diagram_isomorphic(_forest("pq", "r"), _forest("pq", "rs"))
    assert not diagram_isomorphic(_forest("pq", "rs"), _forest("pq", "r"))
    # the same roots in the other order, relabelled
    assert diagram_isomorphic(_forest("pq", "r"), _forest("x", "yz"))


def test_isomorphism_rejects_a_group_no_root_reaches():
    boxes = (TableBox("A", "T", (AttributeRow("k"),)),)
    cycle = Diagram((TableGroup("g1", Quantifier.EXISTS, 1, "g2", boxes),
                     TableGroup("g2", Quantifier.EXISTS, 1, "g1", boxes)), (), ())
    with pytest.raises(InvalidDiagramError, match="group g1 has no root above it"):
        diagram_isomorphic(cycle, cycle)
    orphan = Diagram((*_forest("k").groups,
                      TableGroup("g1", Quantifier.EXISTS, 1, "g9", boxes)), (), ())
    with pytest.raises(InvalidDiagramError, match="group g1 has no root above it"):
        diagram_isomorphic(_forest("k", "k"), orphan)
