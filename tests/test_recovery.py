import itertools
import random
import time
from collections import Counter

import pytest

from sqldiagram import (
    DepthAssignment,
    DiagramGraph,
    brute_force_depths,
    build_diagram,
    check_nondegenerate,
    diagram_to_graph,
    lt_to_sql,
    next_group,
    parse,
    recover_depths,
    recovery,
    resolve_scopes,
)
from sqldiagram.corpus import random_logic_tree
from sqldiagram.errors import InvalidDiagramError
from sqldiagram.fixtures import ONLY_LIKED_DRINKS, UNIQUE_BEER_SET, VALID_QUERIES
from sqldiagram.logic import ViolationKind, build_logic_tree

from graphs import (ancestors, depths_of, enumerate_depths, make_graph, misplaced_joins,
                    ordered_trees, path_family, sampled_queries, small_queries)


def graph_of(sql):
    lt = build_logic_tree(resolve_scopes(parse(sql)))
    diagram = build_diagram(lt)
    return lt, diagram, diagram_to_graph(diagram)


# Edge classes on a 4-node path with nodes r, n1, n2, n3 at depths 0..3.
_CLASS_EDGES = {
    "A": ("r", "n1"), "B": ("n1", "n2"), "C": ("n2", "r"),
    "D": ("n2", "n3"), "E": ("n3", "n1"), "F": ("n3", "r"),
}


def path_graph(present: set[str]):
    return make_graph(["r", "n1", "n2", "n3"], [_CLASS_EDGES[c] for c in present], "r")


def below_root(g):
    """next_group's arguments for the piece below the root of a connected graph."""
    return [g.root_id], set(g.nodes) - {g.root_id}


# -- path families --------------------------------------------------------------


def test_classify_family_ab():
    g = path_graph({"A", "B", "D"})
    assignment = recover_depths(g)
    assert path_family(g, assignment) == "A,B"
    assert assignment.depths == {"r": 0, "n1": 1, "n2": 2, "n3": 3}
    assert assignment.parents == {"n1": "r", "n2": "n1", "n3": "n2"}


def test_classify_family_a_not_b():
    g = path_graph({"A", "D", "E"})
    assignment = recover_depths(g)
    assert path_family(g, assignment) == "A,not-B"
    assert assignment.depths == {"r": 0, "n1": 1, "n2": 2, "n3": 3}


def test_classify_family_not_a():
    g = path_graph({"B", "C", "D"})
    assignment = recover_depths(g)
    assert path_family(g, assignment) == "not-A"
    assert assignment.depths == {"r": 0, "n1": 1, "n2": 2, "n3": 3}


def test_classify_two_node_graph():
    assignment = recover_depths(make_graph(["r", "x"], [("r", "x")], "r"))
    assert assignment.depths == {"r": 0, "x": 1}
    assert assignment.parents == {"x": "r"}


def test_classify_single_node():
    assert recover_depths(make_graph(["r"], [], "r")).depths == {"r": 0}


def test_classify_rejects_missing_mandatory_edge():
    with pytest.raises(InvalidDiagramError):
        recover_depths(path_graph({"A", "B"}))  # D absent in a 4-node path
    with pytest.raises(InvalidDiagramError):
        recover_depths(path_graph({"A", "D"}))  # B absent and E absent
    with pytest.raises(InvalidDiagramError):
        recover_depths(path_graph({"B", "D"}))  # A absent and C absent


def test_path_pattern_census_16_patterns_8_4_4():
    """Exhaustive enumeration over the 64 edge subsets: exactly 16 label as
    the canonical depth-3 path, split 8 / 4 / 4 across the families."""
    true_depths = {"r": 0, "n1": 1, "n2": 2, "n3": 3}
    per_family = {"A,B": 0, "A,not-B": 0, "not-A": 0}
    recognized = 0
    for bits in itertools.product((False, True), repeat=6):
        present = {c for c, keep in zip("ABCDEF", bits) if keep}
        # validity per the connected-subquery property on the true labeling
        valid = ("D" in present
                 and ("A" in present or {"B", "C"} <= present)
                 and ("B" in present or "E" in present))
        g = path_graph(present)
        try:
            assignment = recover_depths(g)
            classified = assignment.depths == true_depths
        except InvalidDiagramError:
            classified = False
        assert classified == valid, present
        if classified:
            recognized += 1
            per_family[path_family(g, assignment)] += 1
            # each valid pattern is unambiguous: the oracle finds exactly it
            survivors = brute_force_depths(path_graph(present))
            assert len(survivors) == 1
            assert survivors[0].depths == true_depths
    assert recognized == 16
    assert per_family["A,B"] == 8
    assert per_family["A,not-B"] == 4
    assert per_family["not-A"] == 4


# -- decompositions --------------------------------------------------------------


_X_BRANCH = [("x1", "x2"), ("x2", "r"), ("x2", "x3"), ("x3", "x1")]
_Y_BRANCH = [("y1", "y2"), ("y2", "r"), ("y2", "y3"), ("y3", "r")]


def _two_branch_root_graph():
    """Root with two path subtrees, both lacking the root->depth-1 edge."""
    return make_graph(["r", "x1", "x2", "x3", "y1", "y2", "y3"], _X_BRANCH + _Y_BRANCH, "r")


def test_decompose_depth0_splits_root_subtrees():
    whole = recover_depths(_two_branch_root_graph())
    for prefix, edges in (("x", _X_BRANCH), ("y", _Y_BRANCH)):
        ids = ["r"] + [f"{prefix}{i}" for i in (1, 2, 3)]
        g = make_graph(ids, edges, "r")
        assignment = recover_depths(g)
        assert path_family(g, assignment) == "not-A"
        assert sorted(assignment.depths.values()) == [0, 1, 2, 3]
        assert assignment.depths == {n: whole.depths[n] for n in ids}


def test_recover_two_branch_root_graph():
    g = _two_branch_root_graph()
    assignment = recover_depths(g)
    assert assignment.depths == {"r": 0, "x1": 1, "x2": 2, "x3": 3,
                                 "y1": 1, "y2": 2, "y3": 3}
    assert assignment.parents == {"x1": "r", "x2": "x1", "x3": "x2",
                                  "y1": "r", "y2": "y1", "y3": "y2"}


def test_identify_depth1_from_root_edge():
    g = path_graph({"A", "B", "D"})
    assert next_group(g, *below_root(g)) == "n1"


def test_identify_depth1_by_disconnection():
    # root has no outgoing edge; the depth-1 node has two depth-2 children,
    # both joining the root, and a3 joins only n1
    edges = [("n1", "a2"), ("a2", "r"), ("n1", "b2"), ("b2", "r"),
             ("a2", "a3"), ("a3", "n1"), ("b2", "b3"), ("b3", "r")]
    g = make_graph(["r", "n1", "a2", "a3", "b2", "b3"], edges, "r")
    assert next_group(g, *below_root(g)) == "n1"
    assignment = recover_depths(g)
    assert assignment.depths == {"r": 0, "n1": 1, "a2": 2, "a3": 3, "b2": 2, "b3": 3}
    survivors = brute_force_depths(g)
    assert len(survivors) == 1 and survivors[0] == assignment


def _depth1_fan(k, depth1):
    """A depth-1 group with k children and no edge from the root: each child
    joins the root and has one child that joins the depth-1 group."""
    ids, edges = ["r", depth1], []
    for i in range(k):
        child, grandchild = f"c{i:03d}", f"g{i:03d}"
        ids += [child, grandchild]
        edges += [(depth1, child), (child, "r"), (child, grandchild), (grandchild, depth1)]
    return make_graph(ids, edges, "r")


class _CountedEdges(frozenset):
    """An edge set that counts its membership tests."""

    lookups = 0

    def __contains__(self, edge):
        self.lookups += 1
        return frozenset.__contains__(self, edge)


def test_identify_depth1_is_linear_in_the_candidates(monkeypatch):
    # "z1" sorts after every grandchild, all of which are candidates too;
    # recovery scans each group's component once and tests each candidate's
    # edges a fixed number of times, wherever the depth-1 group sorts
    scanned = []

    def counted(g, chain, below):
        scanned.append(len(below))
        return next_group(g, chain, below)

    monkeypatch.setattr(recovery, "next_group", counted)

    def recovered(depth1):
        fan = _depth1_fan(300, depth1)
        g = DiagramGraph(fan.nodes, _CountedEdges(fan.edges), fan.root_id)
        scanned.clear()
        return recover_depths(g), sum(scanned), g.edges.lookups

    late, late_scanned, late_lookups = recovered("z1")
    early, early_scanned, early_lookups = recovered("d1")
    assert len(early.depths) == 602

    def rename(node):
        return "d1" if node == "z1" else node

    assert {rename(n): d for n, d in late.depths.items()} == early.depths
    assert {rename(n): rename(p) for n, p in late.parents.items()} == early.parents
    # 601 candidates below the root, then 2 and 1 in each of the 300 branches
    assert late_scanned == early_scanned == 601 + 300 * 3
    # one test per candidate in the direct scans (1 501), 601 + 1 + 300 in
    # the one scan for a mediated depth-1 group, and 601 + 600 in the
    # connected-subquery check
    assert late_lookups == early_lookups == 1501 + 902 + 1201


def test_identify_depth1_single_child_then_branching_depth2():
    # depth-1 has one child, which joins the root and branches; its
    # children join nothing above it
    edges = [("n1", "d2"), ("d2", "r"), ("d2", "e1"), ("d2", "e2")]
    g = make_graph(["r", "n1", "d2", "e1", "e2"], edges, "r")
    assert next_group(g, *below_root(g)) == "n1"


def test_identify_depth1_mediated_neighbor():
    # n1 joins neither the root nor d2, and the children of d2 join n1, not
    # the root: no structure fits, and the step finds no depth-1 group
    edges = [("d2", "r"), ("d2", "e1"), ("d2", "e2"), ("e1", "n1"), ("e2", "n1")]
    g = make_graph(["r", "n1", "d2", "e1", "e2"], edges, "r")
    assert brute_force_depths(g) == []
    with pytest.raises(InvalidDiagramError):
        next_group(g, *below_root(g))
    with pytest.raises(InvalidDiagramError):
        recover_depths(g)


def test_next_group_needs_exactly_one_candidate():
    # two edges from the root into one component
    g = make_graph(["r", "a", "b"], [("r", "a"), ("r", "b"), ("a", "b")], "r")
    with pytest.raises(InvalidDiagramError):
        next_group(g, *below_root(g))
    # no edge from the root, and two groups join it through t
    g = make_graph(["r", "t", "x1", "x2"], [("t", "r"), ("x1", "t"), ("x2", "t")], "r")
    with pytest.raises(InvalidDiagramError):
        next_group(g, *below_root(g))


def test_identify_depth2_by_out_degree():
    edges = [("n1", "d2"), ("d2", "r"), ("d2", "e1"), ("d2", "e2"), ("d2", "e3"),
             ("e1", "n1"), ("e2", "r"), ("e3", "n1")]
    g = make_graph(["r", "n1", "d2", "e1", "e2", "e3"], edges, "r")
    assert next_group(g, ["r", "n1"], {"d2", "e1", "e2", "e3"}) == "d2"
    assignment = recover_depths(g)
    assert assignment.depths == {"r": 0, "n1": 1, "d2": 2, "e1": 3, "e2": 3, "e3": 3}
    assert assignment.parents["e2"] == "d2"
    survivors = brute_force_depths(g)
    assert len(survivors) == 1 and survivors[0] == assignment


def test_identify_depth2_from_built_diagram():
    # two branches at depth 2, built through the real pipeline
    sql = ("SELECT A.x FROM TA A WHERE NOT EXISTS (SELECT * FROM TB B WHERE B.x = A.x"
           " AND NOT EXISTS (SELECT * FROM TC C WHERE C.x = B.x"
           " AND NOT EXISTS (SELECT * FROM TD D WHERE D.x = C.x AND D.y = B.y)"
           " AND NOT EXISTS (SELECT * FROM TE E WHERE E.x = C.x AND E.y = A.y)))")
    lt, diagram, g = graph_of(sql)
    assignment = recover_depths(g)
    truth = depths_of(lt)
    alias_of = {group.id: group.tables[0].alias for group in diagram.groups}
    assert {alias_of[gid]: depth for gid, depth in assignment.depths.items()} == truth
    assert truth == {"A": 0, "B": 1, "C": 2, "D": 3, "E": 3}
    survivors = brute_force_depths(g)
    assert len(survivors) == 1 and survivors[0] == assignment


def test_recover_mixed_branching():
    # one path subtree plus one subtree that branches below its depth-1 group
    edges = [("p1", "p2"), ("p2", "r"), ("p2", "p3"), ("p3", "p1"),
             ("n1", "q2"), ("q2", "r"), ("q2", "q3"), ("q3", "n1"),
             ("n1", "s2"), ("s2", "r"), ("s2", "s3"), ("s3", "r")]
    g = make_graph(["r", "p1", "p2", "p3", "n1", "q2", "q3", "s2", "s3"], edges, "r")
    assignment = recover_depths(g)
    assert assignment.depths == {"r": 0, "p1": 1, "p2": 2, "p3": 3,
                                 "n1": 1, "q2": 2, "q3": 3, "s2": 2, "s3": 3}
    assert assignment.parents["q2"] == "n1" and assignment.parents["s2"] == "n1"


# -- full pipeline -----------------------------------------------------------------


def test_recover_unique_set_diagram():
    _, _, g = graph_of(UNIQUE_BEER_SET)
    assignment = recover_depths(g)
    assert assignment.depths == {"g0_1": 0, "g1_1": 1, "g2_1": 2, "g3_1": 3,
                                 "g2_2": 2, "g3_2": 3}
    assert assignment.parents == {"g1_1": "g0_1", "g2_1": "g1_1", "g3_1": "g2_1",
                                  "g2_2": "g1_1", "g3_2": "g2_2"}


def test_recover_nested_fixture():
    _, _, g = graph_of(ONLY_LIKED_DRINKS)
    assignment = recover_depths(g)
    assert assignment.depths == {"g0_1": 0, "g1_1": 1, "g2_1": 2}


def test_recover_single_group():
    _, _, g = graph_of("SELECT T.a FROM Tab T")
    assignment = recover_depths(g)
    assert assignment.depths == {"g0_1": 0}
    assert assignment.parents == {}


def test_fixture_round_trips_with_oracle():
    for name, sql in VALID_QUERIES.items():
        lt, diagram, g = graph_of(sql)
        assignment = recover_depths(g)
        truth = depths_of(lt)
        for group in diagram.groups:
            assert assignment.depths[group.id] == truth[group.tables[0].alias], name
        survivors = brute_force_depths(g)
        assert len(survivors) == 1 and survivors[0] == assignment, name


def test_random_corpus_round_trip_smoke():
    rng = random.Random(4242)
    for _ in range(40):
        lt = random_logic_tree(rng)
        diagram = build_diagram(lt)
        g = diagram_to_graph(diagram)
        assignment = recover_depths(g)
        truth = depths_of(lt)
        group_alias = {grp.id: grp.tables[0].alias for grp in diagram.groups}
        for gid, alias in group_alias.items():
            assert assignment.depths[gid] == truth[alias]
        survivors = brute_force_depths(g)
        assert len(survivors) == 1 and survivors[0] == assignment


# -- invalid inputs -----------------------------------------------------------------


def test_disconnected_graph_rejected():
    g = make_graph(["r", "a", "b"], [("r", "a")], "r")
    with pytest.raises(InvalidDiagramError):
        recover_depths(g)


def test_unconnected_subquery_graph_rejected():
    # 4-node path missing the depth-2 -> depth-3 edge: no valid labeling
    g = path_graph({"A", "B", "F"})
    assert brute_force_depths(g) == []
    with pytest.raises(InvalidDiagramError):
        recover_depths(g)


# name -> (group ids, edges, root, the message recover_depths raises)
_FAILING_GRAPHS = {
    "root_missing": (["a", "b"], [("a", "b")], "r", "root r missing from graph"),
    "disconnected": (["r", "a", "b"], [("r", "a")], "r", "graph is not weakly connected"),
    # connectivity is checked before any component is labeled, so the
    # component below r where x joins both y and z does not answer first
    "disconnected_before_several_direct": (
        ["r", "d", "x", "y", "z"], [("r", "x"), ("x", "y"), ("x", "z"), ("y", "z")], "r",
        "graph is not weakly connected"),
    "several_direct": (["r", "a", "b"], [("r", "a"), ("r", "b"), ("a", "b")], "r",
                       "r joins several groups of one subquery"),
    "no_mediated": (["r", "a"], [("a", "r")], "r",
                    "no single group below r joins it through its children"),
    "too_deep": (["r", "a", "b", "c", "d"], [("r", "a"), ("a", "b"), ("b", "c"), ("c", "d")],
                 "r", "groups are nested deeper than 3"),
    "arrow_contradiction": (["r", "a", "b"], [("r", "a"), ("a", "b"), ("b", "a")], "r",
                            "edge directions contradict the depth labeling"),
    "subquery_not_connected": (["r", "a", "b", "c"], [("a", "b"), ("b", "r"), ("a", "c")], "r",
                               "connected-subquery property fails"),
    # diagram_to_graph drops an edge within one group, but a hand-built graph
    # may hold one, and no depth labeling lets an arrow point at its own group
    "root_self_loop": (["r", "a"], [("r", "a"), ("r", "r")], "r",
                       "edge directions contradict the depth labeling"),
    "self_loop": (["r", "a"], [("r", "a"), ("a", "a")], "r",
                  "edge directions contradict the depth labeling"),
    # the root is the oracle's only variable, so labeling it must reject the loop
    "lone_root_self_loop": (["r"], [("r", "r")], "r",
                            "edge directions contradict the depth labeling"),
}


def test_error_names_the_failing_stage():
    for name, (ids, edges, root, message) in _FAILING_GRAPHS.items():
        g = make_graph(ids, edges, root)
        with pytest.raises(InvalidDiagramError) as exc:
            recover_depths(g)
        assert exc.value.stage == "recovery", name
        assert str(exc.value) == f"recovery: {message}", name
        assert brute_force_depths(g) == [], name


@pytest.mark.parametrize("ids, edges", [
    (["r"], [("r", "x")]),
    (["r", "a"], [("r", "a"), ("x", "a")]),
], ids=["edge_to_unknown", "edge_from_unknown"])
def test_a_graph_edge_to_an_unknown_group_is_rejected(ids, edges):
    # DiagramGraph is public, so a hand-built graph may name a group it lacks
    with pytest.raises(InvalidDiagramError) as exc:
        make_graph(ids, edges, "r")
    assert exc.value.stage is None
    assert str(exc.value) == "edge endpoint 'x' is not a group"


def test_neighbors_are_sorted_successors_then_sorted_predecessors():
    # The oracle labels groups depth first in this order.  With 26 groups
    # each side, the edge set's own iteration order is not sorted.
    letters = [chr(c) for c in range(ord("z"), ord("a") - 1, -1)]
    succ, pred = [f"s{x}" for x in letters], [f"p{x}" for x in letters]
    g = make_graph(["r", *succ, *pred], [("r", s) for s in succ] + [(p, "r") for p in pred],
                   "r")
    assert list(g.edges) != sorted(g.edges)
    assert g.neighbors("r") == (*sorted(succ), *sorted(pred))
    small = make_graph(["r", "a", "b", "c"], [("r", "c"), ("r", "a"), ("r", "b"), ("b", "r")],
                       "r")
    assert small.neighbors("r") == ("a", "b", "c", "b")
    assert small.neighbors("b") == ("r", "r")


# -- differential test against the oracle ---------------------------------------------


def _agrees_with_oracle(g):
    """Recovery returns the oracle's single survivor, or raises when there is
    none or more than one."""
    survivors = brute_force_depths(g)
    if len(survivors) == 1:
        return recover_depths(g) == survivors[0]
    try:
        recover_depths(g)
    except InvalidDiagramError:
        return True
    return False


def _every_small_graph():
    """Every digraph on 1-4 groups, once per choice of root."""
    for n in range(1, 5):
        ids = [f"n{i}" for i in range(n)]
        pairs = list(itertools.permutations(ids, 2))
        for bits in itertools.product((False, True), repeat=len(pairs)):
            edges = [pair for pair, keep in zip(pairs, bits) if keep]
            for root in ids:
                yield make_graph(ids, edges, root)


def test_recovery_matches_oracle_on_every_small_graph():
    graphs = list(_every_small_graph())
    assert len(graphs) == 16585
    assert [g for g in graphs if not _agrees_with_oracle(g)] == []


def test_recovery_matches_oracle_on_mutated_generated_graphs():
    # generated diagrams of 5-8 groups, each with one edge added or removed
    rng = random.Random(2004)
    checked = 0
    while checked < 200:
        g = diagram_to_graph(build_diagram(random_logic_tree(rng, max_nodes=8)))
        if len(g.nodes) < 5:
            continue
        if g.edges and rng.random() < 0.5:
            edges = g.edges - {rng.choice(sorted(g.edges))}
        else:
            absent = [p for p in itertools.permutations(g.nodes, 2) if p not in g.edges]
            edges = g.edges | {rng.choice(absent)}
        mutated = make_graph(g.nodes, edges, g.root_id)
        assert _agrees_with_oracle(mutated), mutated
        checked += 1


def _verdicts(lt) -> tuple[bool, bool, bool]:
    """Whether the query passes the tree check, whether recovery returns its
    own structure, and whether the oracle finds that structure and nothing
    else."""
    diagram = build_diagram(lt, simplified=False, allow_invalid=True)
    truth = DepthAssignment(
        depths={group.id: group.depth for group in diagram.groups},
        parents={group.id: group.parent for group in diagram.groups if group.parent})
    g = diagram_to_graph(diagram)
    try:
        recovered = recover_depths(g) == truth
    except InvalidDiagramError:
        recovered = False
    return check_nondegenerate(lt).ok, recovered, brute_force_depths(g) == [truth]


def test_tree_check_recovery_and_oracle_agree_on_every_small_query():
    """From the SQL side: on every query of small_queries(5) the tree check
    passes exactly when recovery returns the query's own structure and the
    oracle finds it and nothing else.  The same agreement holds on up to 6
    groups (23 655 queries, 1 420 valid, 8.6 s) and up to 7 groups (301 351
    queries, 9 440 valid, 116 s on Python 3.11 and two shared vCPUs), too
    slow for this suite."""
    queries = valid = 0
    for lt in small_queries(5):
        ok, recovered, unique = _verdicts(lt)
        assert ok == recovered == unique, lt_to_sql(lt)
        queries += 1
        valid += ok
    assert (queries, valid) == (1863, 216)


def test_three_way_agreement_with_two_tables_per_group():
    """Every block of small_queries(5) also reads a second table, joined to
    the first inside the block, and joins its ancestors from it.  The
    intra-group edges add nothing to the group graph, so the verdicts agree
    and the counts are those of one table per block."""
    counts = Counter(_verdicts(lt) for lt in small_queries(5, two_tables=True))
    assert counts == {(True, True, True): 216, (False, False, False): 1647}


def test_a_misplaced_join_draws_the_diagram_of_the_query_it_came_from():
    """A join moved from its block into a child block touches no local alias
    there, and the tree check reports LOCAL_ATTRIBUTES.  The diagram cannot
    show which block holds a predicate: it draws the same edge, so recovery
    and the oracle give the verdicts of the query the join came from, and
    those agree with that query's tree check."""
    moved = 0
    for lt in small_queries(5):
        ok = check_nondegenerate(lt).ok
        for variant in misplaced_joins(lt):
            kinds = {v.kind for v in check_nondegenerate(variant).violations}
            assert ViolationKind.LOCAL_ATTRIBUTES in kinds, lt_to_sql(variant)
            assert _verdicts(variant) == (False, ok, ok), lt_to_sql(variant)
            moved += 1
    assert moved == 3268


def test_three_way_agreement_on_a_sample_of_six_group_queries():
    """A fixed seeded sample of the queries with exactly 6 groups, drawn
    uniformly; the whole set (21 792 queries) takes about 8 s."""
    trees = [parents for parents in ordered_trees(6) if len(parents) == 6]
    valid = 0
    for lt in sampled_queries(random.Random(6), trees, 2500):
        ok, recovered, unique = _verdicts(lt)
        assert ok == recovered == unique, lt_to_sql(lt)
        valid += ok
    assert valid == 161


def test_depth_4_queries_recover_only_to_what_the_oracle_finds():
    """On a fixed seeded sample of queries of up to 6 groups with a block at
    depth 4, recovery either raises or returns a structure of depth 3 or
    less that the oracle also returns.  Each query it returns one for also
    breaks the connected-subquery rule, which `roundtrip` rejects first.  So
    `roundtrip` never reports a depth-4 query as recovered wrongly: of every
    query of up to 7 groups that breaks only the depth bound (57 520), none
    recovers."""
    trees = [parents for parents in ordered_trees(6, max_depth=4)
             if max(map(len, ancestors(parents))) == 4]
    raised = returned = 0
    for lt in sampled_queries(random.Random(4), trees, 3000):
        g = diagram_to_graph(build_diagram(lt, simplified=False, allow_invalid=True))
        try:
            recovered = recover_depths(g)
        except InvalidDiagramError:
            raised += 1
            continue
        assert recovered in brute_force_depths(g), lt_to_sql(lt)
        kinds = {v.kind for v in check_nondegenerate(lt).violations}
        assert ViolationKind.CONNECTED_SUBQUERIES in kinds, lt_to_sql(lt)
        returned += 1
    assert (raised, returned) == (2973, 27)


# -- the backtracking oracle against the reference enumerator --------------------------


def _check_against_reference(g):
    """The oracle returns the reference's survivors; returns how many there are."""
    survivors = brute_force_depths(g)
    expected = sorted(a.to_json() for a in enumerate_depths(g))
    assert sorted(a.to_json() for a in survivors) == expected, g
    return len(survivors)


def test_oracle_matches_reference_on_every_small_graph():
    counts = Counter(_check_against_reference(g) for g in _every_small_graph())
    assert sum(counts.values()) == 16585 and counts[1] > 0


def _nested_digraph(rng):
    """5-8 groups: a random nesting tree of depth at most 3 whose groups join
    their parent or else have children that join both, with random joins to
    further ancestors, then up to two edges toggled."""
    ids = [f"v{i}" for i in range(rng.randint(5, 8))]
    rng.shuffle(ids)
    depth, parent, edges = {ids[0]: 0}, {}, set()
    for node in ids[1:]:
        parent[node] = rng.choice([p for p in depth if depth[p] < 3])
        depth[node] = depth[parent[node]] + 1
    for node in ids[1:]:
        if rng.random() < 0.7:
            edges.add((parent[node], node))
        ancestor = parent[node]
        while ancestor in parent:
            ancestor = parent[ancestor]
            if rng.random() < 0.4:
                edges.add((node, ancestor))
    for node in ids[1:]:
        kids = [k for k in ids if parent.get(k) == node]
        if (parent[node], node) not in edges and rng.random() < 0.7:
            for kid in kids:
                edges |= {(node, kid), (kid, parent[node])}
    for _ in range(rng.randint(0, 2)):
        edges ^= {tuple(rng.sample(ids, 2))}
    return make_graph(ids, edges, ids[0])


def test_oracle_matches_reference_on_random_digraphs():
    rng = random.Random(2005)
    graphs = [_nested_digraph(rng) for _ in range(2000)]
    counts = Counter(_check_against_reference(g) for g in graphs)
    assert counts[1] >= 200
    assert [g for g in graphs if not _agrees_with_oracle(g)] == []


def test_oracle_has_no_group_cap():
    # a root with 300 children, each with 2 children, all joined to their parent
    ids, edges = ["r"], []
    for i in range(300):
        child = f"c{i:03d}"
        ids.append(child)
        edges.append(("r", child))
        for j in range(2):
            ids.append(f"{child}_{j}")
            edges.append((child, f"{child}_{j}"))
    g = make_graph(ids, edges, "r")
    assert len(g.nodes) == 901
    start = time.perf_counter()
    survivors = brute_force_depths(g)
    assert time.perf_counter() - start < 1.0
    assert survivors == [recover_depths(g)]


def test_oracle_on_large_generated_graphs():
    rng = random.Random(40)
    checked = 0
    while checked < 10:
        g = diagram_to_graph(build_diagram(random_logic_tree(rng, max_nodes=40)))
        if len(g.nodes) < 20:
            continue
        start = time.perf_counter()
        survivors = brute_force_depths(g)
        assert time.perf_counter() - start < 1.0
        assert survivors == [recover_depths(g)], g
        checked += 1


def test_oracle_labels_one_branch_at_a_time():
    # 16 not-A paths under one root: each admits a second arrow-consistent
    # labeling that only its own groups rule out, so the search must not
    # multiply the branches' choices
    for present in ({"B", "C", "D"}, {"B", "C", "D", "E"}):
        ids, edges = ["r"], []
        for i in range(16):
            rename = {"r": "r", "n1": f"x{i}_1", "n2": f"x{i}_2", "n3": f"x{i}_3"}
            ids += [rename[n] for n in ("n1", "n2", "n3")]
            edges += [(rename[s], rename[d]) for s, d in (_CLASS_EDGES[c] for c in present)]
        g = make_graph(ids, edges, "r")
        start = time.perf_counter()
        survivors = brute_force_depths(g)
        assert time.perf_counter() - start < 1.0
        assert survivors == [recover_depths(g)]


def test_oracle_cost_stays_flat_when_every_group_has_two_parents(monkeypatch):
    # a and b both sit under r, and n groups are joined from both: no group
    # gets one parent, so nothing survives.  One parent check ends the
    # search, whatever n; a search that tried both candidate parents of each
    # group would take 2^n steps, and one that took the first candidate
    # would check every group's parent
    calls = []
    parent = recovery._parent

    def counted(*args):
        calls.append(args[1])
        return parent(*args)

    monkeypatch.setattr(recovery, "_parent", counted)
    for n in (8, 16, 32):
        ids = ["r", "a", "b", *(f"x{i}" for i in range(n))]
        edges = [("r", "a"), ("r", "b")] + [(p, x) for x in ids[3:] for p in ("a", "b")]
        assert brute_force_depths(make_graph(ids, edges, "r")) == []
        assert len(calls) == 1, n
        calls.clear()


def test_oracle_takes_no_parent_that_a_child_does_not_join(monkeypatch):
    # Labeled r 0, c 1, j and k 2, the only labeling the arrow rule leaves:
    # no in-neighbour of c sits at depth 0, and of its children j joins the
    # root there while k joins nothing, so c has no parent and the labeling
    # is dropped before it is complete.  A parent taken from what any child
    # joins would complete it for the connected-subquery check to reject.
    checked = []
    connected = recovery._connected_subqueries_ok

    def counted(g, assignment):
        checked.append(assignment)
        return connected(g, assignment)

    monkeypatch.setattr(recovery, "_connected_subqueries_ok", counted)
    g = make_graph(["r", "c", "j", "k"], [("j", "r"), ("c", "j"), ("c", "k")], "r")
    assert brute_force_depths(g) == []
    assert checked == []


# -- the depth bound is tight ------------------------------------------------
#
# One level past MAX_DEPTH a diagram can draw two queries.  Each witness below
# admits exactly two structures of depth 4 and none within the bound.

_DEPTH4_WITNESSES = [
    (["n0", "n1", "n2", "n3", "n4"],
     [("n1", "n4"), ("n2", "n4"), ("n3", "n1"), ("n3", "n2"), ("n4", "n0")], "n0"),
    (["g0", "g1", "g2", "g3", "g4"],  # a 5-group path in which g1 and g4 can swap
     [("g1", "g2"), ("g2", "g0"), ("g3", "g1"), ("g3", "g4"), ("g4", "g2")], "g0"),
]


@pytest.mark.parametrize("ids, edges, root", _DEPTH4_WITNESSES, ids=["n0", "path"])
def test_depth4_witness_draws_two_queries(ids, edges, root):
    g = make_graph(ids, edges, root)
    structures = enumerate_depths(g, max_depth=4)
    assert len(structures) == 2
    assert all(max(s.depths.values()) == 4 for s in structures)
    assert enumerate_depths(g, max_depth=3) == []
    assert brute_force_depths(g) == []
    with pytest.raises(InvalidDiagramError):
        recover_depths(g)


def test_no_structure_within_the_bound_has_a_rival_at_depth4():
    # A seeded 1/32 of the 2^20 edge sets on five labelled groups: wherever
    # the bounded oracle finds structures, depth 4 adds none.
    ids = ["n0", "n1", "n2", "n3", "n4"]
    pairs = list(itertools.permutations(ids, 2))
    kept = 0
    for mask in random.Random(7).sample(range(1 << len(pairs)), 1 << 15):
        g = make_graph(ids, [p for i, p in enumerate(pairs) if mask >> i & 1], "n0")
        survivors = brute_force_depths(g)
        if survivors:
            kept += 1
            assert (sorted(s.to_json() for s in enumerate_depths(g, max_depth=4))
                    == sorted(s.to_json() for s in survivors)), sorted(g.edges)
    assert kept >= 50
