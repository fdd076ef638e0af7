"""Group graphs built from bare ids, for recovery tests."""

from sqldiagram import DiagramGraph


def make_graph(ids, edges, root_id: str) -> DiagramGraph:
    """A DiagramGraph from node ids and (src, dst) edge pairs."""
    return DiagramGraph(nodes=tuple(ids), edges=frozenset(tuple(e) for e in edges),
                        root_id=root_id)
