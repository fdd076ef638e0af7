"""Reference diagram isomorphism for differential tests.

`reference_isomorphic` is the earlier `diagram_isomorphic`, kept as an
independent check on the package's search: it is exhaustive, pairs the
children of each group in every order before it checks any of them, and
recurses once per matched item, so it is factorial in the number of alike
siblings and limited by the interpreter's stack.  Keep diagrams small.
"""

from sqldiagram.diagram import Diagram, Row, SelectionRow, TableBox
from sqldiagram.sqlast import FLIPPED_OP


class Relabeling:
    """Per-kind label bijections built up during matching, with undo support."""

    def __init__(self):
        self.forward = {}
        self.backward = {}
        self.trail = []

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            kind, x, y = self.trail.pop()
            del self.forward[(kind, x)]
            del self.backward[(kind, y)]

    def try_pair(self, kind: str, x, y) -> bool:
        fwd = self.forward.get((kind, x))
        bwd = self.backward.get((kind, y))
        if fwd is None and bwd is None:
            self.forward[(kind, x)] = y
            self.backward[(kind, y)] = x
            self.trail.append((kind, x, y))
            return True
        return fwd == y and bwd == x


def reference_isomorphic(a: Diagram, b: Diagram) -> bool:
    if len(a.groups) != len(b.groups) or len(a.edges) != len(b.edges):
        return False
    if len(a.select_box) != len(b.select_box):
        return False

    kids_a = _children_index(a)
    kids_b = _children_index(b)
    by_id_a = {g.id: g for g in a.groups}
    by_id_b = {g.id: g for g in b.groups}
    mapping = Relabeling()

    def match_groups(pairs, cont) -> bool:
        if not pairs:
            return cont()
        (ia, ib), rest = pairs[0], pairs[1:]
        ga, gb = by_id_a[ia], by_id_b[ib]
        if ga.quantifier is not gb.quantifier or ga.depth != gb.depth:
            return False
        if len(ga.tables) != len(gb.tables):
            return False
        ca, cb = kids_a.get(ia, []), kids_b.get(ib, [])
        if len(ca) != len(cb):
            return False
        return match_boxes(list(ga.tables), list(gb.tables),
                           lambda: pair_children(ca, cb, rest, cont))

    def pair_children(ca, cb, rest, cont) -> bool:
        if not ca:
            return match_groups(rest, cont)
        head, tail = ca[0], ca[1:]
        for j, cand in enumerate(cb):
            mark = mapping.mark()
            if pair_children(tail, cb[:j] + cb[j + 1:], rest + [(head, cand)], cont):
                return True
            mapping.undo(mark)
        return False

    def match_boxes(boxes_a: list[TableBox], boxes_b: list[TableBox], cont) -> bool:
        if not boxes_a:
            return cont()
        head, rest = boxes_a[0], boxes_a[1:]
        for j, cand in enumerate(boxes_b):
            if len(head.rows) != len(cand.rows):
                continue
            mark = mapping.mark()
            if (mapping.try_pair("alias", head.alias, cand.alias)
                    and mapping.try_pair("table", head.table_name, cand.table_name)
                    and match_rows(list(head.rows), list(cand.rows),
                                   lambda: match_boxes(rest, boxes_b[:j] + boxes_b[j + 1:], cont))):
                return True
            mapping.undo(mark)
        return False

    def match_rows(rows_a: list[Row], rows_b: list[Row], cont) -> bool:
        if not rows_a:
            return cont()
        head, rest = rows_a[0], rows_a[1:]
        for j, cand in enumerate(rows_b):
            if type(head) is not type(cand):
                continue
            mark = mapping.mark()
            ok = mapping.try_pair("attr", head.attribute, cand.attribute)
            if ok and isinstance(head, SelectionRow):
                ok = (head.op == cand.op and head.constant.kind == cand.constant.kind
                      and mapping.try_pair("const", head.constant.literal, cand.constant.literal))
            if ok and match_rows(rest, rows_b[:j] + rows_b[j + 1:], cont):
                return True
            mapping.undo(mark)
        return False

    def edges_match() -> bool:
        def translate(pair):
            return (mapping.forward.get(("alias", pair[0]), "\0" + pair[0]),
                    mapping.forward.get(("attr", pair[1]), "\0" + pair[1]))

        def canon(src, dst, directed, label):
            if not directed and src > dst:
                src, dst, label = dst, src, label and FLIPPED_OP[label]
            return (src, dst, directed, label or "")

        edges_a = sorted(canon(translate(e.src), translate(e.dst), e.directed, e.label)
                         for e in a.edges)
        edges_b = sorted(canon(e.src, e.dst, e.directed, e.label) for e in b.edges)
        if edges_a != edges_b:
            return False
        if [translate(link) for link in a.select_box] != list(b.select_box):
            return False
        rows_a = [mapping.forward.get(("attr", attribute)) for _, attribute in a.select_box]
        return rows_a == [attribute for _, attribute in b.select_box]

    root_a = next(g for g in a.groups if g.parent is None)
    root_b = next(g for g in b.groups if g.parent is None)
    return match_groups([(root_a.id, root_b.id)], edges_match)


def _children_index(d: Diagram) -> dict[str, list[str]]:
    index: dict[str, list[str]] = {}
    for g in d.groups:
        if g.parent is not None:
            index.setdefault(g.parent, []).append(g.id)
    return index
