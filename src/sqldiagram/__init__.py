"""Compile nested conjunctive SQL queries into logic-based diagrams.

Pipeline: parse -> resolve_scopes -> build_logic_tree -> check_nondegenerate
-> simplify_forall -> build_diagram -> emit_dot / diagram_to_json.  The reverse
direction, recover_depths, reconstructs the unique nesting structure from a
diagram's group graph.
"""

from .diagram import (
    Diagram,
    ReadingOrder,
    build_diagram,
    count_elements,
    count_words,
    diagram_from_json,
    diagram_isomorphic,
    diagram_to_json,
    reading_order,
)
from .dot import emit_dot
from .errors import (
    AmbiguousColumnError,
    DegenerateQueryError,
    InvalidDiagramError,
    MalformedDiagramError,
    MalformedSubqueryError,
    SqlDiagramError,
    SqlSyntaxError,
    UnknownAliasError,
    UnsupportedFeatureError,
)
from .logic import (
    MAX_DEPTH,
    LogicTree,
    LtNode,
    Predicate,
    Quantifier,
    ViolationKind,
    build_logic_tree,
    check_nondegenerate,
    lt_equal,
    lt_to_json,
    lt_to_sql,
    render_trc,
    simplify_forall,
)
from .parser import parse
from .recovery import (
    DepthAssignment,
    DiagramGraph,
    brute_force_depths,
    diagram_to_graph,
    next_group,
    recover_depths,
)
from .scopes import resolve_scopes
from .sqlast import print_sql

__all__ = [
    "Diagram", "ReadingOrder", "build_diagram", "count_elements", "count_words",
    "diagram_from_json", "diagram_isomorphic", "diagram_to_json", "reading_order",
    "emit_dot",
    "AmbiguousColumnError", "DegenerateQueryError", "InvalidDiagramError",
    "MalformedDiagramError", "MalformedSubqueryError", "SqlDiagramError", "SqlSyntaxError",
    "UnknownAliasError", "UnsupportedFeatureError",
    "MAX_DEPTH", "LogicTree", "LtNode", "Predicate", "Quantifier", "ViolationKind",
    "build_logic_tree", "check_nondegenerate", "lt_equal", "lt_to_json", "lt_to_sql",
    "render_trc", "simplify_forall",
    "parse", "print_sql",
    "DepthAssignment", "DiagramGraph", "brute_force_depths", "diagram_to_graph",
    "next_group", "recover_depths",
    "resolve_scopes",
]
