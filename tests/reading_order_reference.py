"""Reference reading order for differential tests.

`reference_reading_order` is the earlier `reading_order`, kept as an
independent check on the package's walk.  It starts at the group of the box
that the first SELECT link names (the first group when there is no link).
After every walk it lists the unvisited groups again and restarts at the
first one whose incoming arrows all come from visited groups, else at the
first unvisited group.  Each restart rescans every group, so it is
quadratic in the number of restarts.  Keep diagrams small.
"""

from sqldiagram.diagram import SELECT_BOX_ID, Diagram, ReadingOrder


def reference_reading_order(d: Diagram) -> ReadingOrder:
    order = {group.id: i for i, group in enumerate(d.groups)}
    group_of = {box.alias: group.id for group in d.groups for box in group.tables}
    out_edges: dict[str, set[str]] = {gid: set() for gid in order}
    in_edges: dict[str, set[str]] = {gid: set() for gid in order}
    for edge in d.edges:
        src, dst = group_of[edge.src[0]], group_of[edge.dst[0]]
        if edge.directed and src != dst:
            out_edges[src].add(dst)
            in_edges[dst].add(src)

    root = group_of[d.select_box[0][0]] if d.select_box else d.groups[0].id
    steps: list[tuple] = [("select", SELECT_BOX_ID), ("enter", root)]
    visited = {root}

    def dfs(start: str) -> None:
        stack = [(start, iter(sorted(out_edges[start], key=order.__getitem__)))]
        while stack:
            gid, targets = stack[-1]
            for target in targets:
                if target not in visited:
                    visited.add(target)
                    steps.append(("follow", gid, target))
                    steps.append(("enter", target))
                    stack.append((target, iter(sorted(out_edges[target], key=order.__getitem__))))
                    break
            else:
                stack.pop()

    dfs(root)
    while len(visited) < len(order):
        unvisited = [gid for gid in order if gid not in visited]
        sources = [gid for gid in unvisited if not (in_edges[gid] - visited)]
        start = sources[0] if sources else unvisited[0]
        visited.add(start)
        steps.append(("restart", start))
        steps.append(("enter", start))
        dfs(start)
    return ReadingOrder(steps=tuple(steps))
