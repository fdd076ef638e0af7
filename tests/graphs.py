"""Group graphs built from bare ids, and the reference oracle, for recovery tests."""

import itertools

from sqldiagram import DepthAssignment, DiagramGraph
from sqldiagram.recovery import _connected_subqueries_ok, _edges_consistent, _scope_ok


def make_graph(ids, edges, root_id: str) -> DiagramGraph:
    """A DiagramGraph from node ids and (src, dst) edge pairs."""
    return DiagramGraph(nodes=tuple(ids), edges=frozenset(tuple(e) for e in edges),
                        root_id=root_id)


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
