"""Recover the nesting structure of a query from its diagram's group graph.

The group graph has one node per table group and one directed edge per
cross-group join (parallel attribute edges collapse, one edge per ordered
pair).  Recovery labels the groups top-down with one step, next_group:
given the chain of groups already labeled at depths 0..k and one weakly
connected component of the groups below it, it returns the component's
group at depth k+1.

  - Direct: by the arrow rule an edge from the depth-k group into the
    component can only reach depth k+1, so its target is that group.
  - Mediated: with no such edge the group joins its parent only through
    its children, and all of them join the depth-k group.  It is the one
    group of the component with no edge to or from the depth-k group and
    an out-edge into one of that group's in-neighbours.  This is exact
    because no group is nested deeper than MAX_DEPTH.

recover_depths applies the step down the chain: the rest of each
component splits into weakly connected components, one per subquery of
the group just labeled.  On a depth-3 path r, n1, n2, n3 the six possible
edge classes are

    A: 0->1   B: 1->2   C: 2->0   D: 2->3   E: 3->1   F: 3->0

The direct rule reads A, B and D; the mediated rule finds n1 through B and
C when A is absent, and n2 through D and E when B is absent.  The three
path families are the rule sequences next_group applies: A and B is the
direct rule at depths 1 and 2, A but not B is direct then mediated, and
not A is mediated at depth 1.

brute_force_depths is the independent oracle: one backtracking loop over
depth labelings, root first, for those that obey three rules: the arrow
rule on every edge, the connected-subquery property on every node, and the
scope rule, under which every edge joins a group to one of its ancestors.
The depths fix each group's parent, since under the scope rule only one
group one level up can be it, so no parent tree is searched.  The arrow
rule and the one-parent condition prune partial labelings; the other two
rules are checked on complete ones."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .diagram import Diagram, arrow_points
from .errors import InvalidDiagramError
from .logic import MAX_DEPTH


@dataclass(frozen=True, slots=True)
class DiagramGraph:
    """Group-level graph: group ids, directed cross-group edges and the root
    group.  Successor and predecessor lists, each sorted, and each group's
    neighbours are built once, on construction, which raises
    InvalidDiagramError for an edge whose endpoint is not in `nodes`."""

    nodes: tuple[str, ...]  # sorted
    edges: frozenset[tuple[str, str]]
    root_id: str
    _succ: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _pred: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _adjacent: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        nodes = set(self.nodes)
        succ: dict[str, list[str]] = {}
        pred: dict[str, list[str]] = {}
        for src, dst in self.edges:
            if src not in nodes or dst not in nodes:
                endpoint = src if src not in nodes else dst
                raise InvalidDiagramError(f"edge endpoint {endpoint!r} is not a group")
            succ.setdefault(src, []).append(dst)
            pred.setdefault(dst, []).append(src)
        for ends in (*succ.values(), *pred.values()):
            ends.sort()
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)
        object.__setattr__(self, "_adjacent", {node: (*succ.get(node, ()), *pred.get(node, ()))
                                               for node in succ.keys() | pred.keys()})

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        """Successors, then predecessors."""
        return self._adjacent.get(node_id, ())

    def weakly_connected_components(self, ids: set[str]) -> list[set[str]]:
        """Components of the subgraph induced by `ids`, ordered by least member."""
        adjacent, unseen = self._adjacent, set(ids)
        components = []
        for seed in sorted(ids):
            if seed not in unseen:
                continue
            unseen.discard(seed)
            component, frontier = {seed}, [seed]
            while frontier:
                for other in adjacent.get(frontier.pop(), ()):
                    if other in unseen:
                        unseen.discard(other)
                        component.add(other)
                        frontier.append(other)
            components.append(component)
        return components


def diagram_to_graph(d: Diagram) -> DiagramGraph:
    """Collapse a diagram to its group-level graph."""
    nodes = tuple(group.id for group in d.groups)
    if len(set(nodes)) != len(nodes):
        repeated = next(gid for gid, count in Counter(nodes).items() if count > 1)
        raise InvalidDiagramError(f"group id {repeated!r} is repeated")
    group_of = {box.alias: group.id for group in d.groups for box in group.tables}
    if len(group_of) != sum(len(group.tables) for group in d.groups):
        aliases = [box.alias for group in d.groups for box in group.tables]
        repeated = next(alias for alias, count in Counter(aliases).items() if count > 1)
        raise InvalidDiagramError(f"table alias {repeated!r} is repeated")
    edges = set()
    for (src_alias, _), (dst_alias, _), directed, _ in d.edges:
        try:
            src, dst = group_of[src_alias], group_of[dst_alias]
        except KeyError:
            alias = src_alias if src_alias not in group_of else dst_alias
            raise InvalidDiagramError(f"edge endpoint {alias!r} is not a table box") from None
        if src == dst:
            continue
        if not directed:
            raise InvalidDiagramError(
                f"undirected edge between distinct groups {src} and {dst}")
        edges.add((src, dst))
    select_aliases = {alias for alias, _ in d.select_box}
    unknown = sorted(select_aliases - group_of.keys())
    if unknown:
        raise InvalidDiagramError(f"SELECT box links to unknown table {unknown[0]!r}")
    roots = sorted({group_of[a] for a in select_aliases})
    if len(roots) != 1:
        raise InvalidDiagramError(f"SELECT box links into {len(roots)} groups, expected 1")
    return DiagramGraph(nodes=nodes, edges=frozenset(edges), root_id=roots[0])


@dataclass(frozen=True, slots=True)
class DepthAssignment:
    depths: dict[str, int] = field(default_factory=dict)
    parents: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {"depths": dict(sorted(self.depths.items())),
               "parents": dict(sorted(self.parents.items()))}
        return json.dumps(doc, indent=2) + "\n"


# -- shared validity checks -------------------------------------------------


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


# -- recovery -------------------------------------------------------------------


def next_group(g: DiagramGraph, chain: list[str], below: set[str]) -> str:
    """The group of `below` at depth len(chain), where `chain` holds the
    groups at depths 0, 1, ... and `below` is one weakly connected component
    of the groups not on it."""
    top, edges = chain[-1], g.edges
    direct = [x for x in below if (top, x) in edges]
    if len(direct) > 1:
        raise InvalidDiagramError(f"{top} joins several groups of one subquery", "recovery")
    if direct:
        return direct[0]
    mediated = [x for x in below if (x, top) not in edges
                and any((t, top) in edges for t in g._succ.get(x, ()))]
    if len(mediated) != 1:
        raise InvalidDiagramError(
            f"no single group below {top} joins it through its children", "recovery")
    return mediated[0]


def recover_depths(g: DiagramGraph) -> DepthAssignment:
    """Unique depth/parent assignment for a valid diagram graph: next_group
    labels the top group of each component below the chain, and the rest of
    the component splits into the components below the longer chain."""
    root = g.root_id
    if root not in g.nodes:
        raise InvalidDiagramError(f"root {root} missing from graph", "recovery")
    components = g.weakly_connected_components(set(g.nodes) - {root})
    joined = set(g.neighbors(root))
    if any(joined.isdisjoint(below) for below in components):
        raise InvalidDiagramError("graph is not weakly connected", "recovery")
    depths, parents = {root: 0}, {}
    stack = [([root], below) for below in components]
    while stack:
        chain, below = stack.pop()
        if len(chain) > MAX_DEPTH:
            raise InvalidDiagramError(f"groups are nested deeper than {MAX_DEPTH}", "recovery")
        top = next_group(g, chain, below)
        depths[top], parents[top] = len(chain), chain[-1]
        below.discard(top)
        if below:
            stack.extend((chain + [top], rest) for rest in g.weakly_connected_components(below))
    if not all(arrow_points(depths[s], depths[d]) for s, d in g.edges):
        raise InvalidDiagramError("edge directions contradict the depth labeling", "recovery")
    assignment = DepthAssignment(depths=depths, parents=parents)
    if not _connected_subqueries_ok(g, assignment):
        raise InvalidDiagramError("connected-subquery property fails", "recovery")
    return assignment


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


def _parent(g: DiagramGraph, node: str, depths: dict[str, int]) -> str | None:
    """The one group one level up that `node` may take as its parent, else
    None.  The scope rule makes every shallower neighbour an ancestor, so a
    neighbour one level up is the parent, and by the arrow rule it is an
    in-neighbour.  A group with none is connected only through its children,
    which are then its out-neighbours one level down; every group one level
    up that all of them join is an ancestor at that depth, so the parent is
    the one such group."""
    d = depths[node]
    up = [p for p in g._pred.get(node, ()) if depths[p] == d - 1]
    if not up:
        kids = [k for k in g._succ.get(node, ()) if depths[k] == d + 1]
        joined = [{p for p in g._succ.get(k, ()) if depths[p] == d - 1} for k in kids]
        up = sorted(set.intersection(*joined)) if joined else []
    return up[0] if len(up) == 1 else None


def brute_force_depths(g: DiagramGraph) -> list[DepthAssignment]:
    """Every depth labeling, with the parent tree it fixes, that satisfies
    the arrow rule, the connected-subquery property and the scope rule,
    found by one backtracking loop.

    Groups are labeled in depth-first order from the root, so each branch
    is labeled before the next.  The root is the first variable and takes
    depth 0 only; every other group takes 1..MAX_DEPTH.  A depth is kept
    when the arrow rule holds on each edge to a group already labeled, a
    self-loop included, and every group whose reads it completes has
    exactly one parent (`_parent`).  Each complete labeling reads its
    parents off with `_parent` and survives when it passes the
    connected-subquery and scope checks."""
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
    # Each group's parent is checked when the last group it reads is labeled.
    rank = {node: i for i, node in enumerate(order)}
    completes: dict[str, list[str]] = {node: [] for node in order}
    for node in order[1:]:
        read = [node, *g.neighbors(node)]
        read += [p for k in g._succ.get(node, ()) for p in g._succ.get(k, ())]
        completes[max(read, key=rank.get)].append(node)

    survivors, depths = [], {}
    tried = [-1]  # the depth last tried by each group labeled so far, in `order`
    while tried:
        node, d = order[len(tried) - 1], tried[-1] + 1
        if d > (MAX_DEPTH if len(tried) > 1 else 0):
            tried.pop()
            del depths[node]
            continue
        tried[-1] = depths[node] = d
        if not (all(arrow_points(d, depths[t]) for t in g._succ.get(node, ()) if t in depths)
                and all(arrow_points(depths[s], d) for s in g._pred.get(node, ()) if s in depths)
                and all(_parent(g, done, depths) is not None for done in completes[node])):
            continue
        if len(tried) < len(order):
            tried.append(0)
            continue
        parents = {node: _parent(g, node, depths) for node in order[1:]}
        assignment = DepthAssignment(depths=dict(depths), parents=parents)
        if _connected_subqueries_ok(g, assignment) and _scope_ok(g, assignment):
            survivors.append(assignment)
    return survivors
