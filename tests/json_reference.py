"""Reference JSON writers for differential tests.

Both build the document as dicts and lists and hand it to
`json.dumps(indent=2, ensure_ascii=False)`.  The diagram half is the earlier
`diagram_to_json`, which the package now writes field by field.  The
package's `lt_to_json` also goes through `json.dumps`, so the logic-tree half
pins the document's shape with code written apart from it: field
names, their order and how each predicate side is spelled.  Every test that
compares the two calls these.
"""

import json

from sqldiagram.diagram import SELECT_BOX_ID, AttributeRow, Diagram, Row
from sqldiagram.logic import LogicTree, LtNode, Predicate
from sqldiagram.sqlast import ColumnRef


def reference_diagram_json(d: Diagram) -> str:
    return json.dumps(diagram_to_dict(d), indent=2, ensure_ascii=False) + "\n"


def reference_lt_json(lt: LogicTree) -> str:
    doc = _node_to_dict(lt.root)
    doc["select_list"] = [col.sql() for col in lt.select_list]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def diagram_to_dict(d: Diagram) -> dict:
    edges = [
        {"from": list(e.src), "to": list(e.dst), "directed": e.directed, "label": e.label}
        for e in d.edges
    ]
    for alias, attribute in d.select_box:
        edges.append({"from": [SELECT_BOX_ID, attribute], "to": [alias, attribute],
                      "directed": False, "label": None})
    return {
        "groups": [
            {
                "id": g.id,
                "quantifier": g.quantifier.value,
                "depth": g.depth,
                "parent": g.parent,
                "tables": [
                    {"alias": box.alias, "table_name": box.table_name,
                     "rows": [_row_to_dict(r) for r in box.rows]}
                    for box in g.tables
                ],
            }
            for g in d.groups
        ],
        "edges": edges,
        "select_box": {"rows": [attribute for _, attribute in d.select_box]},
    }


def _row_to_dict(row: Row) -> dict:
    if isinstance(row, AttributeRow):
        return {"attribute": row.attribute}
    return {"attribute": row.attribute, "op": row.op,
            "constant": {"kind": row.constant.kind, "literal": row.constant.literal}}


def _node_to_dict(node: LtNode) -> dict:
    return {
        "tables": [[alias, table] for alias, table in node.tables],
        "predicates": [_pred_to_dict(p) for p in node.predicates],
        "quantifier": node.quantifier.value,
        "children": [_node_to_dict(c) for c in node.children],
    }


def _pred_to_dict(pred: Predicate) -> dict:
    rhs: object
    if isinstance(pred.rhs, ColumnRef):
        rhs = pred.rhs.sql()
    else:
        rhs = {"kind": pred.rhs.kind, "literal": pred.rhs.literal}
    return {"lhs": pred.lhs.sql(), "op": pred.op, "rhs": rhs}
