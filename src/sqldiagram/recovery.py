"""Recover the nesting structure of a query from its diagram's group graph.

The group graph has one node per table group and one directed edge per
cross-group join (parallel attribute edges collapse, one edge per ordered
pair).  For depth-3 path-shaped graphs the six possible edge classes are

    A: 0->1   B: 1->2   C: 2->0   D: 2->3   E: 3->1   F: 3->0

and classification deduces the unique depth labeling per family: with A and
B present the chain is read off directly; with A but no B the depth-2 node
is the remaining node without incoming edges; without A the depth-2 node is
the in-neighbour of the root that points at the other one.  Branching
graphs are cut into such paths by split_below: it removes the groups found
so far at depths 0, 1 and 2, splits the rest into weakly connected
components and re-attaches the removed groups to each component.

brute_force_depths is the independent oracle: a backtracking search over
depth labelings and parent trees for those that obey three rules: the
arrow rule on every edge, the connected-subquery property on every node,
and the scope rule, under which every edge joins a group to one of its
ancestors."""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from enum import Enum

from .diagram import Diagram
from .errors import InvalidDiagramError
from .logic import MAX_DEPTH


@dataclass(frozen=True)
class DiagramGraph:
    """Group-level graph: group ids, directed cross-group edges and the root
    group.  Successor and predecessor lists are built once, on construction."""

    nodes: tuple[str, ...]  # sorted
    edges: frozenset[tuple[str, str]]
    root_id: str
    _succ: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _pred: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        succ: dict[str, list[str]] = {}
        pred: dict[str, list[str]] = {}
        for src, dst in sorted(self.edges):
            succ.setdefault(src, []).append(dst)
            pred.setdefault(dst, []).append(src)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)

    def out_neighbors(self, node_id: str) -> list[str]:
        return list(self._succ.get(node_id, ()))

    def in_neighbors(self, node_id: str) -> list[str]:
        return list(self._pred.get(node_id, ()))

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        """Successors, then predecessors."""
        return (*self._succ.get(node_id, ()), *self._pred.get(node_id, ()))

    def weakly_connected_components(self, ids: set[str]) -> list[set[str]]:
        """Components of the subgraph induced by `ids`, ordered by least member."""
        seen: set[str] = set()
        components = []
        for seed in sorted(ids):
            if seed in seen:
                continue
            component = {seed}
            frontier = [seed]
            while frontier:
                current = frontier.pop()
                for other in self.neighbors(current):
                    if other in ids and other not in component:
                        component.add(other)
                        frontier.append(other)
            seen |= component
            components.append(component)
        return components


def diagram_to_graph(d: Diagram) -> DiagramGraph:
    """Collapse a diagram to its group-level graph."""
    group_of = {box.alias: group.id for group in d.groups for box in group.tables}
    edges = set()
    for edge in d.edges:
        for alias, _ in (edge.src, edge.dst):
            if alias not in group_of:
                raise InvalidDiagramError(f"edge endpoint {alias!r} is not a table box")
        src, dst = group_of[edge.src[0]], group_of[edge.dst[0]]
        if src == dst:
            continue
        if not edge.directed:
            raise InvalidDiagramError(
                f"undirected edge between distinct groups {src} and {dst}")
        edges.add((src, dst))
    select_aliases = {alias for alias, _ in d.select_box.links}
    unknown = sorted(select_aliases - group_of.keys())
    if unknown:
        raise InvalidDiagramError(f"SELECT box links to unknown table {unknown[0]!r}")
    roots = sorted({group_of[a] for a in select_aliases})
    if len(roots) != 1:
        raise InvalidDiagramError(f"SELECT box links into {len(roots)} groups, expected 1")
    return DiagramGraph(nodes=tuple(g.id for g in d.groups), edges=frozenset(edges),
                        root_id=roots[0])


class PathFamily(Enum):
    AB = "A,B"
    A_NOT_B = "A,not-B"
    NOT_A = "not-A"


@dataclass(frozen=True)
class DepthAssignment:
    depths: dict[str, int] = field(default_factory=dict)
    parents: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {"depths": dict(sorted(self.depths.items())),
               "parents": dict(sorted(self.parents.items()))}
        return json.dumps(doc, indent=2) + "\n"


# -- shared validity checks -------------------------------------------------


def _edge_direction_ok(depth_src: int, depth_dst: int) -> bool:
    """Arrow rule: difference 1 points shallow->deep, >=2 points deep->shallow."""
    return depth_dst == depth_src + 1 or depth_src >= depth_dst + 2


def _edges_consistent(g: DiagramGraph, depths: dict[str, int]) -> bool:
    return all(_edge_direction_ok(depths[s], depths[d]) for s, d in g.edges)


def _connected_subqueries_ok(g: DiagramGraph, assignment: DepthAssignment) -> bool:
    """Graph form of the connected-subquery property: every non-root group
    joins its parent directly, or has children that all join both it and
    its parent."""
    children: dict[str, list[str]] = {}
    for child, parent in assignment.parents.items():
        children.setdefault(parent, []).append(child)
    for node in assignment.depths:
        if node == g.root_id:
            continue
        parent = assignment.parents[node]
        if (parent, node) in g.edges:
            continue
        kids = children.get(node, [])
        if kids and all((node, k) in g.edges and (k, parent) in g.edges for k in kids):
            continue
        return False
    return True


def _validate_assignment(g: DiagramGraph, assignment: DepthAssignment, stage: str) -> None:
    if not _edges_consistent(g, assignment.depths):
        raise InvalidDiagramError("edge directions contradict the depth labeling", stage)
    if not _connected_subqueries_ok(g, assignment):
        raise InvalidDiagramError("connected-subquery property fails", stage)


# -- path classification ----------------------------------------------------


def classify_path_pattern(g: DiagramGraph) -> tuple[PathFamily, DepthAssignment]:
    """Depth labeling for a path-shaped graph of at most MAX_DEPTH + 1 nodes."""
    stage = "path-classification"
    ids = list(g.nodes)
    n = len(ids)
    if n > MAX_DEPTH + 1:
        raise InvalidDiagramError(
            f"path patterns have at most {MAX_DEPTH + 1} nodes, got {n}", stage)
    root = g.root_id
    if root not in ids:
        raise InvalidDiagramError(f"root {root} missing from graph", stage)
    depths = {root: 0}

    if n == 1:
        if g.edges:
            raise InvalidDiagramError("single-node graph with edges", stage)
        return PathFamily.AB, DepthAssignment(depths={root: 0}, parents={})

    out_root = g.out_neighbors(root)
    if out_root:
        if len(out_root) > 1:
            raise InvalidDiagramError("root has outgoing edges to several groups", stage)
        d1 = out_root[0]
        depths[d1] = 1
        remaining = [x for x in ids if x not in (root, d1)]
        if not remaining:
            family = PathFamily.AB
        else:
            b_targets = [t for t in g.out_neighbors(d1) if t != root]
            if b_targets:
                family = PathFamily.AB
                if len(b_targets) > 1:
                    raise InvalidDiagramError("depth-1 group links to several groups", stage)
                d2 = b_targets[0]
                depths[d2] = 2
                last = [x for x in remaining if x != d2]
                if last:
                    depths[last[0]] = 3
            else:
                family = PathFamily.A_NOT_B
                if len(remaining) != 2:
                    raise InvalidDiagramError("no link into the depth-2 group", stage)
                x, y = remaining
                has_xy = (x, y) in g.edges
                has_yx = (y, x) in g.edges
                if has_xy == has_yx:
                    raise InvalidDiagramError("cannot order the depth-2/3 groups", stage)
                d2, d3 = (x, y) if has_xy else (y, x)
                depths[d2], depths[d3] = 2, 3
    else:
        family = PathFamily.NOT_A
        in_root = g.in_neighbors(root)
        if not in_root or n == 2:
            raise InvalidDiagramError("root is disconnected", stage)
        if len(in_root) == 1:
            d2 = in_root[0]
        elif len(in_root) == 2:
            p, q = in_root
            p_to_q = (p, q) in g.edges
            q_to_p = (q, p) in g.edges
            if p_to_q == q_to_p:
                raise InvalidDiagramError("cannot tell the depth-2 group apart", stage)
            d2 = p if p_to_q else q
        else:
            raise InvalidDiagramError("more than two groups link into the root", stage)
        depths[d2] = 2
        in_d2 = g.in_neighbors(d2)
        if len(in_d2) != 1:
            raise InvalidDiagramError("depth-2 group needs exactly one incoming edge", stage)
        d1 = in_d2[0]
        depths[d1] = 1
        d3_candidates = [t for t in g.out_neighbors(d2) if t != root]
        if len(d3_candidates) > 1:
            raise InvalidDiagramError("depth-2 group links to several groups", stage)
        if d3_candidates:
            depths[d3_candidates[0]] = 3

    if len(depths) != n:
        raise InvalidDiagramError("some groups were left unlabeled", stage)
    by_depth = sorted(depths, key=depths.get)
    if sorted(depths.values()) != list(range(n)):
        raise InvalidDiagramError("depth labeling is not a path", stage)
    parents = {by_depth[i]: by_depth[i - 1] for i in range(1, n)}
    assignment = DepthAssignment(depths=depths, parents=parents)
    _validate_assignment(g, assignment, stage)
    return family, assignment


# -- decomposition ------------------------------------------------------------


def split_below(g: DiagramGraph, fixed: set[str]) -> list[DiagramGraph]:
    """Cut the graph at the `fixed` groups: one subgraph per weakly connected
    component of the rest, with the fixed groups re-attached to each."""
    fixed_edges = {(s, d) for s in fixed for d in fixed if (s, d) in g.edges}
    pieces = []
    for component in g.weakly_connected_components(set(g.nodes) - fixed):
        keep = component | fixed
        edges = set(fixed_edges)
        for node in component:
            edges.update((node, d) for d in g.out_neighbors(node) if d in keep)
            edges.update((s, node) for s in g.in_neighbors(node) if s in keep)
        pieces.append(DiagramGraph(nodes=tuple(keep), edges=frozenset(edges),
                                   root_id=g.root_id))
    return pieces


def _peak_out_degree(g: DiagramGraph, minimum: int, message: str, stage: str) -> str:
    """The unique non-root group with the most edges to other non-root groups;
    raises unless that count is at least `minimum`."""
    root = g.root_id
    out_degrees = {node: sum(1 for t in g.out_neighbors(node) if t != root)
                   for node in g.nodes if node != root}
    best = max(out_degrees.values(), default=0)
    peaked = [node for node, deg in out_degrees.items() if deg == best]
    if best < minimum or len(peaked) != 1:
        raise InvalidDiagramError(message, stage)
    return peaked[0]


def _cut_vertices(g: DiagramGraph, ids: set[str]) -> set[str]:
    """Groups whose removal splits their weakly connected component of the
    subgraph induced by `ids`: Tarjan's low-link pass, with an explicit
    stack."""
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    cut = set()
    for start in sorted(ids):
        if start in disc:
            continue
        disc[start] = low[start] = len(disc)
        stack = [(start, iter(g.neighbors(start)))]
        root_children = 0
        while stack:
            node, neighbours = stack[-1]
            for other in neighbours:
                if other not in ids:
                    continue
                if other in disc:
                    low[node] = min(low[node], disc[other])
                else:
                    disc[other] = low[other] = len(disc)
                    stack.append((other, iter(g.neighbors(other))))
                    break
            else:
                stack.pop()
                if not stack:
                    continue
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[node])
                if parent == start:
                    root_children += 1
                elif low[node] >= disc[parent]:
                    cut.add(parent)
        if root_children > 1:
            cut.add(start)
    return cut


def identify_depth1(g: DiagramGraph) -> str:
    """The depth-1 group of a piece split at the root."""
    stage = "depth-1-identification"
    root = g.root_id
    out_root = g.out_neighbors(root)
    if out_root:
        if len(out_root) > 1:
            raise InvalidDiagramError("root has outgoing edges to several groups", stage)
        return out_root[0]
    # No edge from the root: every depth-2 group must link to the root, so
    # candidates are the groups not adjacent to it.  Removing the depth-1
    # group (and the root) disconnects the depth-2 subtrees from each other.
    adjacent = set(g.in_neighbors(root))
    candidates = [x for x in g.nodes if x != root and x not in adjacent]
    if not candidates:
        raise InvalidDiagramError("no candidate for the depth-1 group", stage)
    without_root = set(g.nodes) - {root}
    components = len(g.weakly_connected_components(without_root))
    cut = _cut_vertices(g, without_root)
    for candidate in candidates:
        # Removing a group that is not a cut vertex leaves as many components
        # as before, or one fewer when the group stood alone.
        alone = all(x == candidate or x not in without_root
                    for x in g.neighbors(candidate))
        if candidate in cut or components - alone > 1:
            return candidate
    # No disconnection and not a path: the depth-1 group has a single child,
    # which branches and is the max-out-degree node.
    d2 = _peak_out_degree(g, 2, "cannot locate the depth-2 group", stage)
    direct = [s for s in g.in_neighbors(d2) if s != root]
    if direct:
        return direct[0]
    kids = [t for t in g.out_neighbors(d2) if t != root]
    mediated = [{t for t in g.out_neighbors(k) if t != root} for k in kids]
    common = set.intersection(*mediated) if mediated else set()
    if len(common) == 1:
        return common.pop()
    raise InvalidDiagramError("no consistent depth-1 group exists", stage)


def identify_depth2(g: DiagramGraph) -> str:
    """The depth-2 group of a branching piece split below the depth-1 group:
    after dropping the root, the unique node with maximal out-degree."""
    return _peak_out_degree(g, 1, "out-degree tie among depth-2 candidates",
                            "depth-2-identification")


# -- full recovery ------------------------------------------------------------


def recover_depths(g: DiagramGraph) -> DepthAssignment:
    """Unique depth/parent assignment for a valid diagram graph.

    Splits below the root, then below the depth-1 and depth-2 groups, until
    every piece is a classifiable path, and merges the per-piece labelings.
    """
    if g.root_id not in g.nodes:
        raise InvalidDiagramError(f"root {g.root_id} missing from graph", "recovery")
    if len(g.weakly_connected_components(set(g.nodes))) != 1:
        raise InvalidDiagramError("graph is not weakly connected", "recovery")
    merged = _recover_below(g, [g.root_id])
    _validate_assignment(g, merged, "recovery")
    return merged


def _recover_below(g: DiagramGraph, chain: list[str]) -> DepthAssignment:
    """Labeling of every piece below `chain`, the groups at depths 0..k: a
    piece that is not a path is split again below its depth k+1 group."""
    merged = DepthAssignment(depths={node: i for i, node in enumerate(chain)},
                             parents=dict(zip(chain[1:], chain)))
    for piece in split_below(g, set(chain)):
        try:
            assignment = classify_path_pattern(piece)[1]
        except InvalidDiagramError:
            if len(chain) == MAX_DEPTH:
                raise
            identify = identify_depth1 if len(chain) == 1 else identify_depth2
            assignment = _recover_below(piece, chain + [identify(piece)])
        if len(chain) == 2 and assignment.depths.get(chain[1]) != 1:
            raise InvalidDiagramError("decomposition disagrees on the depth-1 group",
                                      "depth-1-decomposition")
        _merge(merged, assignment)
    return merged


def _merge(target: DepthAssignment, part: DepthAssignment) -> None:
    for node, depth in part.depths.items():
        if target.depths.setdefault(node, depth) != depth:
            raise InvalidDiagramError(f"conflicting depths recovered for {node}", "merge")
    for node, parent in part.parents.items():
        if target.parents.setdefault(node, parent) != parent:
            raise InvalidDiagramError(f"conflicting parents recovered for {node}", "merge")


# -- independent oracle --------------------------------------------------------


def _scope_ok(g: DiagramGraph, assignment: DepthAssignment) -> bool:
    """Scope rule: every edge joins a group to one of its ancestors, since
    sibling blocks cannot see each other's aliases."""
    depths, parents = assignment.depths, assignment.parents
    for s, d in g.edges:
        deep, shallow = (s, d) if depths[s] > depths[d] else (d, s)
        while depths[deep] > depths[shallow]:
            deep = parents[deep]
        if deep != shallow:
            return False
    return True


def _backtrack(variables: list[str], options: Callable[[str, dict], list],
               partial: dict) -> Iterator[dict]:
    """Depth-first search with an explicit stack: yields `partial` each time
    every variable holds a value.  `options(var, partial)` lists the values
    `var` may take given the variables before it."""
    if not variables:
        yield partial
        return
    stack = [iter(options(variables[0], partial))]
    while stack:
        var = variables[len(stack) - 1]
        value = next(stack[-1], None)
        if value is None:
            stack.pop()
            partial.pop(var, None)
            continue
        partial[var] = value
        if len(stack) == len(variables):
            yield partial
        else:
            stack.append(iter(options(variables[len(stack)], partial)))


def _parent_candidates(g: DiagramGraph, node: str, depths: dict[str, int]) -> list[str]:
    """The groups one level up that `node` may take as its parent.  The
    scope rule makes every shallower neighbour an ancestor, so a neighbour
    one level up is the parent.  A group with none is connected only through
    its children, which are then its out-neighbours one level down, so its
    parent must be joined by each of them."""
    d = depths[node]
    up = [p for p in g._pred.get(node, ()) if depths[p] == d - 1]
    if up:
        return up
    kids = [k for k in g._succ.get(node, ()) if depths[k] == d + 1]
    joined = [{p for p in g._succ.get(k, ()) if depths[p] == d - 1} for k in kids]
    return sorted(set.intersection(*joined)) if joined else []


def brute_force_depths(g: DiagramGraph) -> list[DepthAssignment]:
    """Every depth labeling plus parent tree that satisfies the arrow rule,
    the connected-subquery property and the scope rule, found by a
    backtracking search.

    Depths are assigned outward from the root in depth-first order, so each
    branch is labeled before the next; each edge is checked by the arrow rule
    once both ends have a depth, and a group is dropped as soon as the
    depths it reads leave it no parent candidate.  Parents are then chosen
    layer by layer from those candidates.  A group's scope is checked once
    its parent is chosen; the connected-subquery property of a group without
    an edge from its parent is checked on each child as it is placed.  Every
    survivor passes the whole-assignment checks again."""
    root = g.root_id
    order, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            order.append(node)
            stack.extend(reversed(g.neighbors(node)))
    if seen != set(g.nodes) | {root}:
        return []  # a group not connected to the root cannot join its parent
    # Each group's candidates are checked when the last group they read is labeled.
    rank = {node: i for i, node in enumerate(order)}
    completes: dict[str, list[str]] = {node: [] for node in order}
    for node in order[1:]:
        read = [node, *g.neighbors(node)]
        read += [p for k in g._succ.get(node, ()) for p in g._succ.get(k, ())]
        completes[max(read, key=rank.get)].append(node)

    def depth_options(node: str, partial: dict[str, int]) -> list[int]:
        options = []
        for d in range(1, MAX_DEPTH + 1):
            partial[node] = d
            if (all(_edge_direction_ok(d, partial[t]) for t in g._succ.get(node, ())
                    if t in partial)
                    and all(_edge_direction_ok(partial[s], d) for s in g._pred.get(node, ())
                            if s in partial)
                    and all(_parent_candidates(g, done, partial) for done in completes[node])):
                options.append(d)
        del partial[node]
        return options

    def ancestor(node: str, depth: int, parents: dict[str, str]) -> str:
        while depths[node] > depth:
            node = parents[node]
        return node

    def parent_options(node: str, parents: dict[str, str]) -> list[str]:
        shallower = [y for y in g.neighbors(node) if depths[y] < depths[node]]
        return [p for p in _parent_candidates(g, node, depths)
                if all(ancestor(p, depths[y], parents) == y for y in shallower)
                and (p == root or (parents[p], p) in g.edges
                     or ((p, node) in g.edges and (node, parents[p]) in g.edges))]

    survivors = []
    for labeling in _backtrack(order[1:], depth_options, {root: 0}):
        depths = dict(labeling)
        for parents in _backtrack(sorted(order[1:], key=depths.get), parent_options, {}):
            assignment = DepthAssignment(depths=dict(depths), parents=dict(parents))
            if (_edges_consistent(g, depths) and _connected_subqueries_ok(g, assignment)
                    and _scope_ok(g, assignment)):
                survivors.append(assignment)
    return survivors
