"""Group graphs built from bare ids, the path family of a recovered path,
every small query and the reference oracle, for recovery tests."""

import itertools

from sqldiagram import (MAX_DEPTH, DepthAssignment, DiagramGraph, LogicTree, Predicate,
                        Quantifier)
from sqldiagram.logic import make_node
from sqldiagram.recovery import _connected_subqueries_ok, _edges_consistent, _scope_ok
from sqldiagram.sqlast import ColumnRef


def make_graph(ids, edges, root_id: str) -> DiagramGraph:
    """A DiagramGraph from node ids and (src, dst) edge pairs."""
    return DiagramGraph(nodes=tuple(ids), edges=frozenset(tuple(e) for e in edges),
                        root_id=root_id)


def path_family(g: DiagramGraph, assignment: DepthAssignment) -> str:
    """The family of a recovered path, one group at each depth, read off its
    edges: is edge A (depth 0 to 1) present, and is edge B (1 to 2)?  "A,B"
    is the direct rule at depths 1 and 2, "A,not-B" direct then mediated,
    "not-A" mediated at depth 1."""
    path = sorted(assignment.depths, key=assignment.depths.get)
    assert [assignment.depths[node] for node in path] == list(range(len(path)))
    a = len(path) < 2 or (path[0], path[1]) in g.edges
    b = len(path) < 3 or (path[1], path[2]) in g.edges
    return "A,B" if a and b else "A,not-B" if a else "not-A"


def ordered_trees(max_nodes: int):
    """Every ordered rooted tree of up to `max_nodes` nodes and depth at most
    MAX_DEPTH, as its parent list in pre-order: node 0 is the root (parent
    None), and each later node hangs below a node on the path from the node
    before it up to the root."""
    def grow(parents, depths):
        yield tuple(parents)
        if len(parents) == max_nodes:
            return
        node = len(parents) - 1
        while node is not None:
            if depths[node] < MAX_DEPTH:
                yield from grow(parents + [node], depths + [depths[node] + 1])
            node = parents[node]
    yield from grow([None], [0])


def small_queries(max_groups: int):
    """Every query of depth at most MAX_DEPTH with up to `max_groups` blocks,
    one table per block and any subset of the equi-joins from a block to its
    ancestors.  Block i reads table T as alias t<i>; nested blocks are NOT
    EXISTS.  Depths fix each join's direction and the scope rule allows only
    joins to ancestors, so these draw every group graph a supported query
    can."""
    for parents in ordered_trees(max_groups):
        ancestors = [()]
        for parent in parents[1:]:
            ancestors.append((parent, *ancestors[parent]))
        for joins in itertools.product(*(itertools.product((False, True), repeat=len(up))
                                         for up in ancestors)):
            root = _block(0, parents, [[up for up, join in zip(ups, picks) if join]
                                       for ups, picks in zip(ancestors, joins)])
            yield LogicTree(root=root, select_list=(ColumnRef(alias="t0", attribute="x"),))


def _block(i: int, parents, joined):
    """Block i of a small query; `joined[i]` lists the blocks it joins."""
    column = ColumnRef(alias=f"t{i}", attribute="x")
    predicates = [Predicate(lhs=column, op="=", rhs=ColumnRef(alias=f"t{up}", attribute="x"))
                  for up in joined[i]]
    children = [_block(k, parents, joined) for k, p in enumerate(parents) if p == i]
    quantifier = Quantifier.ROOT if i == 0 else Quantifier.NOT_EXISTS
    return make_node([(f"t{i}", "T")], predicates, quantifier, children)


def enumerate_depths(g: DiagramGraph, max_depth: int = 3) -> list[DepthAssignment]:
    """Reference for `brute_force_depths`: every depth labeling, then every
    parent tree, kept when it obeys the arrow rule, the connected-subquery
    property and the scope rule.  Exponential; keep graphs small."""
    others = [node for node in g.nodes if node != g.root_id]
    survivors: list[DepthAssignment] = []
    for depth_combo in itertools.product(range(1, max_depth + 1), repeat=len(others)):
        depths = {g.root_id: 0}
        depths.update(zip(others, depth_combo))
        if not _edges_consistent(g, depths):
            continue
        candidate_parents = []
        feasible = True
        for node in others:
            options = [p for p in depths if depths[p] == depths[node] - 1]
            if not options:
                feasible = False
                break
            candidate_parents.append(options)
        if not feasible:
            continue
        for parent_combo in itertools.product(*candidate_parents):
            assignment = DepthAssignment(depths=dict(depths),
                                         parents=dict(zip(others, parent_combo)))
            if _connected_subqueries_ok(g, assignment) and _scope_ok(g, assignment):
                survivors.append(assignment)
    return survivors
