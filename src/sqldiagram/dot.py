"""Deterministic DOT serialization of a diagram.

Each table box becomes one node with an HTML table label (inverted header,
highlighted selection rows), each not-exists group a dashed rounded cluster,
each forall group a double-bordered rounded cluster; exists and root groups
emit no cluster.  Edges keep their direction and operator labels.  Identical
diagrams always produce byte-identical documents.
"""

from __future__ import annotations

from .diagram import (
    SELECT_BOX_ID,
    AttributeRow,
    Diagram,
    TableBox,
)
from .logic import Quantifier


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _table(header: str, background: str, font: str, cells) -> str:
    """An HTML table label: the header in its colours, then one row with
    port p_i per (text, highlighted) cell."""
    lines = ['<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0">',
             f'<TR><TD BGCOLOR="{background}">'
             f'<FONT COLOR="{font}">{_escape(header)}</FONT></TD></TR>']
    for i, (text, highlighted) in enumerate(cells):
        fill = ' BGCOLOR="yellow"' if highlighted else ""
        lines.append(f'<TR><TD PORT="p_{i}"{fill}>{_escape(text)}</TD></TR>')
    lines.append("</TABLE>")
    return "".join(lines)


def _box_label(box: TableBox, port: dict[tuple[str, str], str]) -> str:
    """The box's HTML table; records in `port` where edges attach to it."""
    header = box.table_name if box.alias == box.table_name else f"{box.alias}: {box.table_name}"
    cells = []
    for i, row in enumerate(box.rows):
        if isinstance(row, AttributeRow):
            # build_diagram draws one row per (alias, attribute); a hand-made
            # box with two attaches edges to the first
            port.setdefault((box.alias, row.attribute), f"t_{box.alias}:p_{i}")
            cells.append((row.attribute, False))
        else:
            cells.append((f"{row.attribute} {row.op} {row.constant.sql()}", True))
    return _table(header, "black", "white", cells)


# The style lines of each boxed group's cluster; other groups draw no cluster.
_CLUSTER_STYLE = {
    Quantifier.NOT_EXISTS: ('style="rounded,dashed";',),
    Quantifier.FOR_ALL: ('style="rounded";', "peripheries=2;"),
}


def emit_dot(d: Diagram) -> str:
    out: list[str] = []
    out.append("digraph query_diagram {")
    out.append("  rankdir=LR;")
    out.append('  node [shape=none, fontname="Helvetica"];')
    select_label = _table("SELECT", "lightgrey", "black",
                          [(attribute, False) for _, attribute in d.select_box])
    out.append(f'  t_{SELECT_BOX_ID} [label=<{select_label}>];')
    port: dict[tuple[str, str], str] = {}
    for group in d.groups:
        node_lines = [f't_{box.alias} [label=<{_box_label(box, port)}>];'
                      for box in group.tables]
        if group.boxed:
            out.append(f"  subgraph cluster_{group.id} {{")
            out.extend(f"    {line}" for line in (*_CLUSTER_STYLE[group.quantifier],
                                                  *node_lines))
            out.append("  }")
        else:
            out.extend(f"  {line}" for line in node_lines)
    for edge in d.edges:
        attrs = ["dir=forward" if edge.directed else "dir=none"]
        if edge.label is not None:
            attrs.append(f'label="{_escape(edge.label)}"')
        out.append(f"  {port[edge.src]} -> {port[edge.dst]} [{', '.join(attrs)}];")
    for i, link in enumerate(d.select_box):
        out.append(f"  t_{SELECT_BOX_ID}:p_{i} -> {port[link]} [dir=none];")
    out.append("}")
    return "\n".join(out) + "\n"
