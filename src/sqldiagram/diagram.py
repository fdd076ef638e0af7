"""Diagram model and its construction from a Logic Tree.

One table group per tree node (the group keeps the node's quantifier and
depth), one table box per alias, one row per relevant attribute plus one
highlighted row per selection predicate, one edge per join predicate and a
SELECT box linked to the projected attributes.

Arrow rule for cross-group joins: equal depths give an undirected edge,
depth difference one points from the shallower to the deeper group, and
difference two or more points from the deeper to the shallower group.
Whenever endpoint order is swapped to match the arrow, the comparison
operator is mirrored so the label read from source to target states the
true relation.  Equijoins carry no label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateQueryError, InvalidDiagramError, MalformedDiagramError
from .logic import (
    LogicTree,
    LtNode,
    Predicate,
    Quantifier,
    _Relabeling,  # goes once diagram_isomorphic adapts lt_equal (ROADMAP item 2)
    check_nondegenerate,
    simplify_forall,
)
from .sqlast import FLIPPED_OP, ColumnRef, Constant

SELECT_BOX_ID = "SELECT"


class AttributeRow(NamedTuple):
    attribute: str


class SelectionRow(NamedTuple):
    attribute: str
    op: str
    constant: Constant


Row = AttributeRow | SelectionRow


class TableBox(NamedTuple):
    alias: str
    table_name: str
    rows: tuple[Row, ...]


class TableGroup(NamedTuple):
    id: str
    quantifier: Quantifier
    depth: int
    parent: str | None
    tables: tuple[TableBox, ...]

    @property
    def boxed(self) -> bool:
        """Only not-exists and forall groups draw a bounding box."""
        return self.quantifier in (Quantifier.NOT_EXISTS, Quantifier.FOR_ALL)


class Edge(NamedTuple):
    src: tuple[str, str]  # (alias, attribute)
    dst: tuple[str, str]
    directed: bool
    label: str | None  # None exactly for equijoins


# The builder and the loader make these values in bulk (a 901-group diagram
# holds some 2 900 groups, boxes, selection rows and edges), so both skip the
# Python-level __new__ of each, as the tokenizer does for tokens: every call
# passes all fields, in order.
_new = tuple.__new__


@dataclass(frozen=True, slots=True)
class Diagram:
    groups: tuple[TableGroup, ...]  # canonical pre-order
    edges: tuple[Edge, ...]  # join edges, canonical order
    # one (alias, attribute) link per SELECT row, in select-list order; each
    # row's label is its link's attribute
    select_box: tuple[tuple[str, str], ...]

    def boxes(self) -> list[TableBox]:
        return [box for group in self.groups for box in group.tables]


def arrow_points(depth_src: int, depth_dst: int) -> bool:
    """Arrow rule: an edge may point from a group at depth_src to one at
    depth_dst when the target is one level deeper or the source two or more
    levels deeper."""
    return depth_dst == depth_src + 1 or depth_src >= depth_dst + 2


def orient_inequality(pred: Predicate, depths: dict[str, int]) -> Edge:
    """Order the edge endpoints to match the arrow rule (equal depths give
    an undirected edge) and mirror the operator if that swaps the operands."""
    assert isinstance(pred.rhs, ColumnRef), "orient_inequality needs a join predicate"
    lhs, rhs, op = pred.lhs, pred.rhs, pred.op
    depth_lhs, depth_rhs = depths[lhs.alias], depths[rhs.alias]
    directed = depth_lhs != depth_rhs
    if directed:
        swap = not arrow_points(depth_lhs, depth_rhs)
    else:
        swap = (lhs.alias, lhs.attribute) > (rhs.alias, rhs.attribute)
    if swap:
        lhs, rhs, op = rhs, lhs, FLIPPED_OP[op]
    return _new(Edge, ((lhs.alias, lhs.attribute), (rhs.alias, rhs.attribute),
                       directed, None if op == "=" else op))


def build_diagram(lt: LogicTree, simplified: bool = True, *,
                  allow_invalid: bool = False) -> Diagram:
    """Construct the diagram for a validated Logic Tree.

    One pre-order walk of the (simplified) tree numbers each group per
    depth and notes its parent, each alias's depth (a later block that
    declares an alias again wins), the join predicates and the selection
    rows.  The boxes, which need every attribute an alias is joined on, and
    the edges, which need every alias's depth, are built after it.

    Raises DegenerateQueryError when validation fails, unless allow_invalid.
    """
    if not allow_invalid:
        report = check_nondegenerate(lt)
        if report.violations:
            raise DegenerateQueryError(report)
    if simplified:
        lt = simplify_forall(lt)

    select_attrs: dict[str, set[str]] = {}
    for col in lt.select_list:
        select_attrs.setdefault(col.alias, set()).add(col.attribute)
    depths: dict[str, int] = {}
    join_attrs: dict[str, set[str]] = {}
    selections: dict[str, set[SelectionRow]] = {}
    join_predicates: list[Predicate] = []
    walked: list[tuple[str, LtNode, int, str | None]] = []  # (id, node, depth, parent)
    per_depth_count: dict[int, int] = {}
    stack: list[tuple[LtNode, int, str | None]] = [(lt.root, 0, None)]
    while stack:
        node, depth, parent = stack.pop()
        count = per_depth_count[depth] = per_depth_count.get(depth, 0) + 1
        gid = f"g{depth}_{count}"
        walked.append((gid, node, depth, parent))
        for alias, _ in node.tables:
            depths[alias] = depth
        for pred in node.predicates:
            lhs, rhs = pred.lhs, pred.rhs
            if isinstance(rhs, ColumnRef):
                join_predicates.append(pred)
                join_attrs.setdefault(lhs.alias, set()).add(lhs.attribute)
                join_attrs.setdefault(rhs.alias, set()).add(rhs.attribute)
            else:
                selections.setdefault(lhs.alias, set()).add(
                    _new(SelectionRow, (lhs.attribute, pred.op, rhs)))
        stack += [(child, depth + 1, gid) for child in reversed(node.children)]

    def rows_for(alias: str) -> tuple[Row, ...]:
        selected, joined = select_attrs.get(alias), join_attrs.get(alias)
        attributes = sorted(selected) if selected else []
        if joined:
            attributes += sorted(joined - selected if selected else joined)
        rows: list[Row] = [_new(AttributeRow, (a,)) for a in attributes]
        if alias in selections:
            rows += sorted(selections[alias], key=lambda r: (r.attribute, r.op, r.constant.kind,
                                                             r.constant.literal))
        return tuple(rows)

    groups = tuple(
        _new(TableGroup, (gid, node.quantifier, depth, parent,
                          tuple([_new(TableBox, (alias, table, rows_for(alias)))
                                 for alias, table in node.tables])))
        for gid, node, depth, parent in walked)
    edges = [orient_inequality(pred, depths) for pred in join_predicates]
    edges.sort(key=lambda e: (e.src, e.dst, e.label or ""))
    select_box = tuple((col.alias, col.attribute) for col in lt.select_list)
    return Diagram(groups=groups, edges=tuple(edges), select_box=select_box)


# ---------------------------------------------------------------------------
# Reading order


@dataclass(frozen=True, slots=True)
class ReadingOrder:
    """Traversal steps over the diagram: ("select", id), ("enter", group),
    ("follow", src, dst) and ("restart", group)."""

    steps: tuple[tuple, ...]

    @property
    def visit_order(self) -> tuple[str, ...]:
        return tuple(step[1] for step in self.steps if step[0] == "enter")

    @property
    def restarts(self) -> tuple[str, ...]:
        return tuple(step[1] for step in self.steps if step[0] == "restart")


def reading_order(d: Diagram) -> ReadingOrder:
    """Depth-first traversal of the groups from the SELECT box, following
    arrows (directed cross-group edges) only, with restarts at unvisited
    groups that have no unvisited incoming arrow, else at the first one.
    The walk starts at the group of the box that the first SELECT link
    names, or at the first group when there is no link, so the order of
    the groups does not move the start.  A diagram without groups reads as
    the SELECT box alone.

    A finished depth-first walk leaves no arrow from a visited group to an
    unvisited one, so an unvisited group has an unvisited incoming arrow
    exactly when any arrow enters it.  So the starts are fixed in advance:
    that first start, the groups no arrow enters, then all groups, in group
    order."""
    order = {group.id: i for i, group in enumerate(d.groups)}
    group_of = {box.alias: group.id for group in d.groups for box in group.tables}
    out_edges: dict[str, set[str]] = {gid: set() for gid in order}
    for edge in d.edges:
        src, dst = group_of[edge.src[0]], group_of[edge.dst[0]]
        if edge.directed and src != dst:
            out_edges[src].add(dst)
    entered = set().union(*out_edges.values())

    first = [group_of[alias] for alias, _ in d.select_box[:1]] or [g.id for g in d.groups[:1]]
    starts = (*first,
              *(gid for gid in order if gid not in entered), *order)
    # (source, group) pairs, the starts' source None, the first start on top;
    # a popped group already visited is skipped.  An explicit stack, so a
    # long chain of arrows needs no recursion.
    stack: list[tuple[str | None, str]] = [(None, gid) for gid in reversed(starts)]
    steps: list[tuple] = [("select", SELECT_BOX_ID)]
    visited: set[str] = set()
    while stack:
        source, gid = stack.pop()
        if gid in visited:
            continue
        if source is not None:
            steps.append(("follow", source, gid))
        elif visited:  # every start after the root
            steps.append(("restart", gid))
        visited.add(gid)
        steps.append(("enter", gid))
        stack += [(gid, target)
                  for target in sorted(out_edges[gid], key=order.__getitem__, reverse=True)]
    return ReadingOrder(steps=tuple(steps))


# ---------------------------------------------------------------------------
# Verbosity metrics


def count_elements(d: Diagram) -> int:
    """Fixed counting rule: boxes + rows + edges (incl. select links) +
    edge labels + quantifier bounding boxes + the SELECT box."""
    boxes = len(d.boxes())
    rows = sum(len(box.rows) for box in d.boxes()) + len(d.select_box)
    edges = len(d.edges) + len(d.select_box)
    labels = sum(1 for e in d.edges if e.label is not None)
    quantifier_boxes = sum(1 for g in d.groups if g.boxed)
    return boxes + 1 + rows + edges + labels + quantifier_boxes


def count_words(sql_text: str) -> int:
    return len(sql_text.split())


# ---------------------------------------------------------------------------
# Canonical JSON


# `indent` makes json.dumps fall back to its pure-Python encoder, so the
# canonical document is written field by field in the layout it would
# give; string leaves still go through its C string encoder.
_json_str = json.encoder.encode_basestring


def _json_str_or_null(value: str | None) -> str:
    return "null" if value is None else _json_str(value)


def _json_array(items: list[str], pad: str) -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) does
    with the closing bracket on a line indented by `pad`."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def diagram_to_json(d: Diagram) -> str:
    """Canonical JSON of a diagram: the bytes json.dumps(doc, indent=2,
    ensure_ascii=False) gives for it, plus a newline."""
    groups = [
        f'{{\n      "id": {_json_str(g.id)},\n'
        f'      "quantifier": {_json_str(g.quantifier.value)},\n'
        f'      "depth": {g.depth:d},\n'
        f'      "parent": {_json_str_or_null(g.parent)},\n'
        f'      "tables": {_json_array([_box_json(box) for box in g.tables], " " * 6)}\n    }}'
        for g in d.groups]
    edges = [_edge_json(e.src, e.dst, e.directed, e.label) for e in d.edges]
    edges += [_edge_json((SELECT_BOX_ID, link[1]), link, False, None) for link in d.select_box]
    select_rows = _json_array([_json_str(attribute) for _, attribute in d.select_box], "    ")
    return (f'{{\n  "groups": {_json_array(groups, "  ")},\n'
            f'  "edges": {_json_array(edges, "  ")},\n'
            f'  "select_box": {{\n    "rows": {select_rows}\n  }}\n}}\n')


def _box_json(box: TableBox) -> str:
    rows = _json_array([_row_json(row) for row in box.rows], " " * 10)
    return (f'{{\n          "alias": {_json_str(box.alias)},\n'
            f'          "table_name": {_json_str(box.table_name)},\n'
            f'          "rows": {rows}\n        }}')


def _row_json(row: Row) -> str:
    attribute = f'{{\n              "attribute": {_json_str(row.attribute)}'
    if isinstance(row, AttributeRow):
        return attribute + "\n            }"
    return (f'{attribute},\n              "op": {_json_str(row.op)},\n'
            f'              "constant": {{\n'
            f'                "kind": {_json_str(row.constant.kind)},\n'
            f'                "literal": {_json_str(row.constant.literal)}\n'
            f'              }}\n            }}')


def _edge_json(src: tuple[str, str], dst: tuple[str, str], directed: bool,
               label: str | None) -> str:
    ends = " " * 6
    return (f'{{\n      "from": {_json_array([_json_str(x) for x in src], ends)},\n'
            f'      "to": {_json_array([_json_str(x) for x in dst], ends)},\n'
            f'      "directed": {"true" if directed else "false"},\n'
            f'      "label": {_json_str_or_null(label)}\n    }}')


def diagram_from_json(text: str) -> Diagram:
    """The diagram that the JSON document `text` describes.  The loader
    reads the shape that diagram_to_json writes, not its bytes: any key
    order, layout, and order of groups, boxes, rows and edges loads, and
    keys it does not read are ignored.  The document is an object with
    `groups` and `edges` lists and a `select_box` object.  Each group has a
    string `id`, a `quantifier` name, an integer `depth`, a string or null
    `parent` and a `tables` list; each box a string `alias` and
    `table_name` and a `rows` list of objects, each with a string
    `attribute`, plus an `op` and a `constant` for a selection row; each
    edge a `from` and a `to` of two strings each, a boolean `directed` and
    a null or comparison-operator `label`.  An edge from the SELECT box is a
    select link: it runs undirected and unlabelled from the row of the
    attribute it links, and `select_box.rows`, read last, must be those
    attributes in order.  A document of any other shape raises
    MalformedDiagramError, which names the JSON path of the first fault in
    read order, where an object's keys are read before its values are
    checked.  Equal rows may be one shared object."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedDiagramError(str(exc)) from None
    if type(doc) is not dict:
        raise MalformedDiagramError("the document: expected an object")
    for key, _, _ in _TOP_LEVEL:
        if key not in doc:
            raise MalformedDiagramError(f"{key}: missing")
    for key, kind, expected in _TOP_LEVEL:
        if type(doc[key]) is not kind:
            raise MalformedDiagramError(f"{key}: expected {expected}")
    if "rows" not in (select_box := doc["select_box"]):
        raise MalformedDiagramError("select_box.rows: missing")
    # Groups, boxes, selection rows and edges are built with tuple.__new__,
    # which skips their classes' own __new__ and its count of the fields, so
    # each call here passes every field in order.
    attribute_rows, groups = {}, []  # one row per attribute name
    for i, g in enumerate(doc["groups"]):
        try:
            gid, quantifier, depth, parent, tables = (
                g["id"], g["quantifier"], g["depth"], g["parent"], g["tables"])
        except (KeyError, TypeError) as exc:
            raise _gap(exc, g, f"groups[{i}]") from None
        if type(gid) is not str:
            raise MalformedDiagramError(f"groups[{i}].id: expected a string")
        if type(quantifier) is not str or (quantifier := _QUANTIFIERS.get(quantifier)) is None:
            raise MalformedDiagramError(f'groups[{i}].quantifier: expected "ROOT", "EXISTS", '
                                        f'"NOT_EXISTS" or "FOR_ALL"')
        if type(depth) is not int:  # nor a bool
            raise MalformedDiagramError(f"groups[{i}].depth: expected an integer")
        if parent is not None and type(parent) is not str:
            raise MalformedDiagramError(f"groups[{i}].parent: expected a string or null")
        if type(tables) is not list:
            raise MalformedDiagramError(f"groups[{i}].tables: expected a list")
        boxes = []
        for j, t in enumerate(tables):
            try:
                alias, table_name, rows = t["alias"], t["table_name"], t["rows"]
            except (KeyError, TypeError) as exc:
                raise _gap(exc, t, f"groups[{i}].tables[{j}]") from None
            if type(alias) is not str:
                raise MalformedDiagramError(f"groups[{i}].tables[{j}].alias: expected a string")
            if type(table_name) is not str:
                raise MalformedDiagramError(
                    f"groups[{i}].tables[{j}].table_name: expected a string")
            if type(rows) is not list:
                raise MalformedDiagramError(f"groups[{i}].tables[{j}].rows: expected a list")
            box_rows = []
            for k, r in enumerate(rows):
                try:
                    attribute = r["attribute"]
                    if "op" in r:
                        op, constant = r["op"], r["constant"]
                except (KeyError, TypeError) as exc:
                    raise _gap(exc, r, f"groups[{i}].tables[{j}].rows[{k}]") from None
                if type(attribute) is not str:
                    raise MalformedDiagramError(
                        f"groups[{i}].tables[{j}].rows[{k}].attribute: expected a string")
                if "op" in r:
                    row = _selection_row(attribute, op, constant,
                                         f"groups[{i}].tables[{j}].rows[{k}]")
                elif (row := attribute_rows.get(attribute)) is None:
                    row = attribute_rows[attribute] = _new(AttributeRow, (attribute,))
                box_rows.append(row)
            boxes.append(_new(TableBox, (alias, table_name, tuple(box_rows))))
        groups.append(_new(TableGroup, (gid, quantifier, depth, parent, tuple(boxes))))
    join_edges, links = [], []
    for i, e in enumerate(doc["edges"]):
        try:
            src, dst, directed, label = e["from"], e["to"], e["directed"], e["label"]
        except (KeyError, TypeError) as exc:
            raise _gap(exc, e, f"edges[{i}]") from None
        if not (type(src) is list and len(src) == 2
                and type(src[0]) is str and type(src[1]) is str):
            raise MalformedDiagramError(f"edges[{i}].from: expected a list of two strings")
        if not (type(dst) is list and len(dst) == 2
                and type(dst[0]) is str and type(dst[1]) is str):
            raise MalformedDiagramError(f"edges[{i}].to: expected a list of two strings")
        src, dst = (src[0], src[1]), (dst[0], dst[1])
        if src[0] == SELECT_BOX_ID:
            links.append(dst)
            if src[1] != dst[1] or directed is not False or label is not None:
                raise MalformedDiagramError(f"SELECT edge to {e['to']!r} must run undirected "
                                            f"and unlabelled from {[SELECT_BOX_ID, dst[1]]!r}")
        else:
            if directed is not True and directed is not False:
                raise MalformedDiagramError(f"edges[{i}].directed: expected true or false")
            if label is not None and label not in _COMPARISON_OPS:
                raise MalformedDiagramError(
                    f"edges[{i}].label: expected null or a comparison operator")
            join_edges.append(_new(Edge, (src, dst, directed, label)))
    rows, linked = select_box["rows"], [attribute for _, attribute in links]
    if rows != linked:  # rows that are not a list too
        raise MalformedDiagramError(
            f"select_box rows {rows!r} are not the linked attributes {linked!r}")
    return Diagram(tuple(groups), tuple(join_edges), tuple(links))


_QUANTIFIERS = {q.value: q for q in Quantifier}
_TOP_LEVEL = (("groups", list, "a list"), ("edges", list, "a list"),
              ("select_box", dict, "an object"))

# A tuple, not a set: membership then compares, so an unhashable op is
# reported as a wrong op rather than raising TypeError.
_COMPARISON_OPS = tuple(FLIPPED_OP)


def _gap(exc: KeyError | TypeError, element, path: str) -> MalformedDiagramError:
    """The fault that `exc`, raised while the keys of the JSON element at
    `path` were read, reports: an element that is not an object, or a
    missing key.  Any other `exc` is a fault of the loader, raised again."""
    if type(element) is not dict:
        return MalformedDiagramError(f"{path}: expected an object")
    if type(exc) is KeyError:
        return MalformedDiagramError(f"{path}.{exc.args[0]}: missing")
    raise exc


def _selection_row(attribute: str, op, constant, path: str) -> SelectionRow:
    """The selection row at `path`, whose attribute is read."""
    if op not in _COMPARISON_OPS:
        raise MalformedDiagramError(f"{path}.op: expected a comparison operator")
    try:
        kind, literal = constant["kind"], constant["literal"]
    except (KeyError, TypeError) as exc:
        raise _gap(exc, constant, f"{path}.constant") from None
    if kind != "string" and kind != "number":
        raise MalformedDiagramError(f'{path}.constant.kind: expected "string" or "number"')
    if type(literal) is not str:
        raise MalformedDiagramError(f"{path}.constant.literal: expected a string")
    return _new(SelectionRow, (attribute, op, Constant(kind, literal)))


# ---------------------------------------------------------------------------
# Isomorphism modulo label renaming


def diagram_isomorphic(a: Diagram, b: Diagram) -> bool:
    """True when some per-kind bijection of alias, table, attribute and
    constant labels maps one diagram onto the other, preserving the group
    tree, quantifiers, box rows, edges and the SELECT box.

    One pass over each diagram's groups indexes them and takes its shape
    (see _indexed_shape), a before b, and diagrams of different shape, edge
    count or SELECT row count answer false there.  Else the search is
    exhaustive: it pairs the roots as it pairs any siblings and groups down
    each tree, within a group its boxes and their rows, and compares the
    edges and the SELECT box only once every group is paired, backtracking
    into every other pairing when they differ.  Its time is factorial in the
    number of alike siblings, and in the number of alike rows of one box.
    Raises InvalidDiagramError when a group's parent links lead to no root.
    """
    kids_a, shape_a = _indexed_shape(a)
    kids_b, shape_b = _indexed_shape(b)
    if (shape_a, len(a.edges), len(a.select_box)) != (shape_b, len(b.edges), len(b.select_box)):
        return False
    mapping = _Relabeling()

    def pair_groups(x: TableGroup, y: TableGroup):
        kx, ky = kids_a.get(x.id, []), kids_b.get(y.id, [])
        if x.quantifier is not y.quantifier or x.depth != y.depth or len(kx) != len(ky):
            return
        for _ in mapping.pair_all(x.tables, y.tables, pair_boxes):
            yield from mapping.pair_all(kx, ky, pair_groups)

    def pair_boxes(x: TableBox, y: TableBox):
        if len(x.rows) != len(y.rows):
            return
        for _ in mapping.pair(("alias", x.alias, y.alias), ("table", x.table_name, y.table_name)):
            yield from mapping.pair_all(x.rows, y.rows, pair_rows)

    def pair_rows(x: Row, y: Row):
        if type(x) is not type(y):
            return
        if isinstance(x, AttributeRow):
            yield from mapping.pair(("attr", x.attribute, y.attribute))
        elif x.op == y.op and x.constant.kind == y.constant.kind:
            yield from mapping.pair(("attr", x.attribute, y.attribute),
                                    ("const", x.constant.literal, y.constant.literal))

    def translate(pair: tuple[str, str]):
        return (mapping.forward.get(("alias", pair[0]), "\0" + pair[0]),
                mapping.forward.get(("attr", pair[1]), "\0" + pair[1]))

    def canon(src, dst, directed, label):
        # an undirected edge's stored endpoint order is a label-dependent
        # convention, so compare it orientation-free
        if not directed and src > dst:
            src, dst, label = dst, src, label and FLIPPED_OP[label]
        return (src, dst, directed, label or "")

    # b's side depends on no pairing; it is sorted at the first complete
    # pairing, which many searches never reach
    edges_b = None

    def edges_match() -> bool:
        nonlocal edges_b
        if edges_b is None:
            edges_b = sorted(canon(*e) for e in b.edges)
        edges_a = sorted(canon(translate(e.src), translate(e.dst), e.directed, e.label)
                         for e in a.edges)
        return edges_a == edges_b and tuple(map(translate, a.select_box)) == b.select_box

    roots_a, roots_b = kids_a.get(None, []), kids_b.get(None, [])
    return any(edges_match() for _ in mapping.pair_all(roots_a, roots_b, pair_groups))


def _indexed_shape(d: Diagram) -> tuple[dict[str | None, list[TableGroup]], list[tuple]]:
    """Each group's children by its id, the roots under None, and the shape, a
    key no relabelling changes: per group its depth, quantifier `_value_`,
    sorted box row counts and sorted (op, constant kind) pairs of selection
    rows, in sorted order.  The search pairs only what agrees on all of
    these; edges are left out, as an undirected edge's stored label is
    oriented by label order.  Raises InvalidDiagramError for the first group,
    in order, that no root reaches."""
    index: dict[str | None, list[TableGroup]] = {}
    key = []
    for g in d.groups:
        index.setdefault(g.parent, []).append(g)
        counts, selections = [], []
        for box in g.tables:
            counts.append(len(box.rows))
            for r in box.rows:
                if type(r) is SelectionRow:
                    selections.append((r.op, r.constant.kind))
        counts.sort()
        selections.sort()
        key.append((g.depth, g.quantifier._value_, counts, selections))
    reached, stack = set(), [None]
    while stack:
        for g in index.get(stack.pop(), ()):
            if g.id not in reached:
                reached.add(g.id)
                stack.append(g.id)
    for g in d.groups:
        if g.id not in reached:  # in a parent cycle, or under an unknown id
            raise InvalidDiagramError(f"group {g.id} has no root above it")
    key.sort()
    return index, key
