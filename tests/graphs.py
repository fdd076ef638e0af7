"""Group graphs built from bare ids, the path family of a recovered path,
every small query (or a seeded sample of them) and the reference oracle,
for recovery tests."""

import itertools

from sqldiagram import (MAX_DEPTH, DepthAssignment, DiagramGraph, LogicTree, Predicate,
                        Quantifier)
from sqldiagram.logic import make_node
from sqldiagram.sqlast import ColumnRef


def make_graph(ids, edges, root_id: str) -> DiagramGraph:
    """A DiagramGraph from node ids and (src, dst) edge pairs."""
    return DiagramGraph(nodes=tuple(ids), edges=frozenset(tuple(e) for e in edges),
                        root_id=root_id)


def depths_of(lt) -> dict[str, int]:
    """Each alias's depth in a logic tree, read off its pre-order walk; a
    later block that declares an alias again wins."""
    return {alias: len(path) for path, node, _ in lt.walk() for alias in node.aliases}


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


def ordered_trees(max_nodes: int, max_depth: int = MAX_DEPTH):
    """Every ordered rooted tree of up to `max_nodes` nodes and depth at most
    `max_depth`, as its parent list in pre-order: node 0 is the root (parent
    None), and each later node hangs below a node on the path from the node
    before it up to the root."""
    def grow(parents, depths):
        yield tuple(parents)
        if len(parents) == max_nodes:
            return
        node = len(parents) - 1
        while node is not None:
            if depths[node] < max_depth:
                yield from grow(parents + [node], depths + [depths[node] + 1])
            node = parents[node]
    yield from grow([None], [0])


def ancestors(parents) -> list[tuple[int, ...]]:
    """Each node's ancestors, nearest first; their number is its depth."""
    chains = [()]
    for parent in parents[1:]:
        chains.append((parent, *chains[parent]))
    return chains


def small_queries(max_groups: int, two_tables: bool = False):
    """Every query of depth at most MAX_DEPTH with up to `max_groups` blocks
    and any subset of the equi-joins from a block to its ancestors.
    Block i reads table T as alias t<i>; nested blocks are NOT EXISTS.  With
    `two_tables` it also reads U as u<i>, joined to t<i> inside the block,
    and its joins to ancestors start at u<i>.  Depths fix each join's
    direction and the scope rule allows only joins to ancestors, so these
    draw every group graph a supported query can."""
    for parents in ordered_trees(max_groups):
        chains = ancestors(parents)
        for picks in itertools.product(*(itertools.product((False, True), repeat=len(up))
                                         for up in chains)):
            yield _query(parents, [[up for up, join in zip(ups, chosen) if join]
                                   for ups, chosen in zip(chains, picks)], two_tables)


def sampled_queries(rng, trees, count: int):
    """`count` queries drawn with replacement from those small_queries makes
    on `trees` (parent lists as ordered_trees yields them), each equally
    likely."""
    chains = [ancestors(parents) for parents in trees]
    weights = [2 ** sum(map(len, c)) for c in chains]
    for i in rng.choices(range(len(trees)), weights=weights, k=count):
        yield _query(trees[i], [[up for up in ups if rng.random() < 0.5] for ups in chains[i]])


def _query(parents, joined, two_tables: bool = False) -> LogicTree:
    root = _block(0, parents, joined, two_tables)
    return LogicTree(root=root, select_list=(ColumnRef(alias="t0", attribute="x"),))


def _block(i: int, parents, joined, two_tables: bool):
    """Block i of a small query; `joined[i]` lists the blocks it joins."""
    column = ColumnRef(alias=f"t{i}", attribute="x")
    tables, predicates = [(f"t{i}", "T")], []
    if two_tables:
        tables.append((f"u{i}", "U"))
        predicates.append(Predicate(lhs=ColumnRef(alias=f"u{i}", attribute="y"), op="=",
                                    rhs=ColumnRef(alias=f"t{i}", attribute="y")))
        column = ColumnRef(alias=f"u{i}", attribute="x")
    predicates += [Predicate(lhs=column, op="=", rhs=ColumnRef(alias=f"t{up}", attribute="x"))
                   for up in joined[i]]
    children = [_block(k, parents, joined, two_tables) for k, p in enumerate(parents) if p == i]
    quantifier = Quantifier.ROOT if i == 0 else Quantifier.NOT_EXISTS
    return make_node(tables, predicates, quantifier, children)


def misplaced_joins(lt: LogicTree):
    """Every query made from `lt` by moving one predicate of a block into
    one of its child blocks, where it touches no local alias (a
    LOCAL_ATTRIBUTES violation).  Its diagram draws the same edge between
    the same two groups."""
    def moved(node):
        for i, child in enumerate(node.children):
            others = node.children[:i] + node.children[i + 1:]
            for pred in node.predicates:
                host = make_node(child.tables, (*child.predicates, pred), child.quantifier,
                                 child.children)
                rest = [p for p in node.predicates if p != pred]
                yield make_node(node.tables, rest, node.quantifier, (*others, host))
            for deeper in moved(child):
                yield make_node(node.tables, node.predicates, node.quantifier, (*others, deeper))
    for root in moved(lt.root):
        yield LogicTree(root=root, select_list=lt.select_list)


def enumerate_depths(g: DiagramGraph, max_depth: int = 3) -> list[DepthAssignment]:
    """Reference for `brute_force_depths`: every depth labeling, then every
    parent tree, kept when it obeys the arrow rule, the connected-subquery
    property and the scope rule, each written here from its statement and
    not taken from the package.  Exponential; keep graphs small."""
    others = [node for node in g.nodes if node != g.root_id]
    survivors: list[DepthAssignment] = []
    for depth_combo in itertools.product(range(1, max_depth + 1), repeat=len(others)):
        depths = {g.root_id: 0}
        depths.update(zip(others, depth_combo))
        if not _arrows_ok(g, depths):
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
            parents = dict(zip(others, parent_combo))
            if _subqueries_connected(g, parents) and _joins_in_scope(g, parents):
                survivors.append(DepthAssignment(depths=dict(depths), parents=parents))
    return survivors


def _arrows_ok(g: DiagramGraph, depths) -> bool:
    """Arrow rule: each edge points one level down, or two or more levels up."""
    return all(depths[dst] == depths[src] + 1 or depths[src] >= depths[dst] + 2
               for src, dst in g.edges)


def _joined(g: DiagramGraph, x, y) -> bool:
    return (x, y) in g.edges or (y, x) in g.edges


def _subqueries_connected(g: DiagramGraph, parents) -> bool:
    """Connected-subquery property: every non-root group joins its parent,
    or has children, and each of them joins both the group and its parent."""
    for node, parent in parents.items():
        kids = [k for k, p in parents.items() if p == node]
        if not (_joined(g, node, parent)
                or kids and all(_joined(g, k, node) and _joined(g, k, parent) for k in kids)):
            return False
    return True


def _joins_in_scope(g: DiagramGraph, parents) -> bool:
    """Scope rule: of each edge's two endpoints, one is an ancestor of the other."""
    def above(node):
        while node in parents:
            node = parents[node]
            yield node
    return all(src in above(dst) or dst in above(src) for src, dst in g.edges)
