"""Logic Tree: the canonical semantic form of a query.

Each node is one query block: its tables, its conjunctive predicates and
the quantifier applied to them.  Lowering maps the subquery operators to
quantifiers (EXISTS -> exists, NOT EXISTS / NOT IN / op ALL -> not-exists,
IN / op ANY -> exists with an extra equality or comparison against the
subquery's single select column).  FOR_ALL never comes out of lowering;
it is introduced only by simplify_forall, which rewrites a not-exists
node with a single not-exists child into forall/exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum

from .errors import MalformedSubqueryError
from .sqlast import (
    COMPLEMENT_OP,
    FLIPPED_OP,
    ColumnRef,
    Comparison,
    Constant,
    Exists,
    InSubquery,
    QuantifiedComparison,
    QueryAst,
    iter_predicates,
)


class Quantifier(Enum):
    ROOT = "ROOT"
    EXISTS = "EXISTS"
    NOT_EXISTS = "NOT_EXISTS"
    FOR_ALL = "FOR_ALL"

    @property
    def symbol(self) -> str:
        return {"ROOT": "", "EXISTS": "∃", "NOT_EXISTS": "∄", "FOR_ALL": "∀"}[self.value]


@dataclass(frozen=True)
class Predicate:
    """A comparison at the logic level; operands are fully qualified."""

    lhs: ColumnRef
    op: str
    rhs: ColumnRef | Constant

    @property
    def is_selection(self) -> bool:
        return isinstance(self.rhs, Constant)

    @property
    def aliases(self) -> tuple[str, ...]:
        if isinstance(self.rhs, ColumnRef):
            return (self.lhs.alias, self.rhs.alias)
        return (self.lhs.alias,)

    def normalize(self) -> "Predicate":
        """Join predicates get lexicographic operand order, operator flipped to match."""
        if self.is_selection:
            return self
        assert isinstance(self.rhs, ColumnRef)
        lhs_key = (self.lhs.alias, self.lhs.attribute)
        rhs_key = (self.rhs.alias, self.rhs.attribute)
        if lhs_key <= rhs_key:
            return self
        return Predicate(lhs=self.rhs, op=FLIPPED_OP[self.op], rhs=self.lhs)

    def text(self) -> str:
        return f"{self.lhs.sql()} {self.op} {self.rhs.sql()}"

    def sort_key(self):
        if isinstance(self.rhs, ColumnRef):
            rhs = ("col", self.rhs.alias, self.rhs.attribute)
        else:
            rhs = ("const", self.rhs.kind, self.rhs.literal)
        return (self.lhs.alias, self.lhs.attribute, self.op, rhs)


@dataclass(frozen=True)
class LtNode:
    tables: tuple[tuple[str, str], ...]  # (alias, table_name), sorted by alias
    predicates: tuple[Predicate, ...]  # normalized, sorted, duplicate-free
    quantifier: Quantifier
    children: tuple["LtNode", ...]  # canonical order

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(alias for alias, _ in self.tables)

    def sort_key(self):
        return (self.tables, tuple(p.sort_key() for p in self.predicates),
                tuple(c.sort_key() for c in self.children))


@dataclass(frozen=True)
class LogicTree:
    root: LtNode
    select_list: tuple[ColumnRef, ...]

    def walk(self):
        """Yield (path, node, parent) in pre-order; path is a tuple of child indices."""
        stack = [((), self.root, None)]
        while stack:
            path, node, parent = stack.pop()
            yield path, node, parent
            for i in reversed(range(len(node.children))):
                stack.append((path + (i,), node.children[i], node))

    def depth_by_alias(self) -> dict[str, int]:
        return {alias: len(path) for path, node, _ in self.walk() for alias in node.aliases}


def make_node(tables, predicates, quantifier, children=()) -> LtNode:
    """Build an LtNode in canonical form (sorted tables/predicates/children)."""
    norm = sorted({p.normalize() for p in predicates}, key=Predicate.sort_key)
    kids = tuple(sorted(children, key=LtNode.sort_key))
    return LtNode(tables=tuple(sorted(tables)), predicates=tuple(norm),
                  quantifier=quantifier, children=kids)


# ---------------------------------------------------------------------------
# Lowering


def build_logic_tree(ast: QueryAst) -> LogicTree:
    """Lower a scope-resolved AST to its Logic Tree."""
    _require_resolved(ast)
    root = _lower_block(ast, Quantifier.ROOT, ())
    return LogicTree(root=root, select_list=ast.select_list)


def _require_resolved(block: QueryAst) -> None:
    def refs(pred):
        if isinstance(pred, Comparison):
            yield pred.lhs
            if isinstance(pred.rhs, ColumnRef):
                yield pred.rhs
        elif isinstance(pred, (InSubquery, QuantifiedComparison)):
            yield pred.column

    columns = list(block.select_list)
    for pred in iter_predicates(block.where_clause):
        columns.extend(refs(pred))
        if isinstance(pred, (Exists, InSubquery, QuantifiedComparison)):
            _require_resolved(pred.subquery)
    for col in columns:
        if col.alias is None:
            raise ValueError(
                f"column {col.attribute!r} is unqualified; run resolve_scopes first")


def _lower_block(block: QueryAst, quantifier: Quantifier,
                 extra_predicates: tuple[Predicate, ...]) -> LtNode:
    predicates: list[Predicate] = list(extra_predicates)
    children: list[LtNode] = []
    for pred in iter_predicates(block.where_clause):
        if isinstance(pred, Comparison):
            predicates.append(Predicate(lhs=pred.lhs, op=pred.op, rhs=pred.rhs))
        elif isinstance(pred, Exists):
            q = Quantifier.NOT_EXISTS if pred.negated else Quantifier.EXISTS
            children.append(_lower_block(pred.subquery, q, ()))
        elif isinstance(pred, InSubquery):
            q = Quantifier.NOT_EXISTS if pred.negated else Quantifier.EXISTS
            link = Predicate(lhs=pred.column, op="=", rhs=_single_column(pred.subquery))
            children.append(_lower_block(pred.subquery, q, (link,)))
        elif isinstance(pred, QuantifiedComparison):
            sel = _single_column(pred.subquery)
            if pred.mode == "ANY":
                q = Quantifier.EXISTS
                op = pred.op
            else:  # ALL: no binding may violate, so negate both quantifier and operator
                q = Quantifier.NOT_EXISTS
                op = COMPLEMENT_OP[pred.op]
            if pred.negated:
                q = Quantifier.EXISTS if q is Quantifier.NOT_EXISTS else Quantifier.NOT_EXISTS
            link = Predicate(lhs=pred.column, op=op, rhs=sel)
            children.append(_lower_block(pred.subquery, q, (link,)))
        else:
            raise TypeError(f"unknown predicate node {pred!r}")
    tables = [(ref.alias, ref.table_name) for ref in block.from_list]
    return make_node(tables, predicates, quantifier, children)


def _single_column(subquery: QueryAst) -> ColumnRef:
    if len(subquery.select_list) != 1:
        raise MalformedSubqueryError(
            f"IN/ANY/ALL subquery must select exactly one column, got "
            f"{len(subquery.select_list) or 'SELECT *'}")
    return subquery.select_list[0]


# ---------------------------------------------------------------------------
# Validation (non-degeneracy and depth)


class ViolationKind(Enum):
    LOCAL_ATTRIBUTES = "LocalAttributes"
    CONNECTED_SUBQUERIES = "ConnectedSubqueries"
    DEPTH_EXCEEDED = "DepthExceeded"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    node_path: tuple[int, ...]
    predicate: Predicate | None = None

    def __str__(self) -> str:
        where = "/".join(map(str, self.node_path)) or "root"
        if self.predicate is not None:
            return f"{self.kind.value} at node {where}: {self.predicate.text()}"
        return f"{self.kind.value} at node {where}"


@dataclass(frozen=True)
class ValidationReport:
    depth_ok: bool
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_nondegenerate(lt: LogicTree, max_depth: int = 3) -> ValidationReport:
    """Report local-attribute, connected-subquery and depth violations.

    Every predicate must reference at least one attribute of its own block,
    and every nested block must either reference its parent directly or have
    all of its children reference both the block and the block's parent.
    """
    violations: list[Violation] = []
    for path, node, parent in lt.walk():
        local = set(node.aliases)
        for pred in node.predicates:
            if not local.intersection(pred.aliases):
                violations.append(Violation(ViolationKind.LOCAL_ATTRIBUTES, path, pred))
        if parent is not None:
            parent_set = set(parent.aliases)
            references_parent = any(
                parent_set.intersection(pred.aliases) for pred in node.predicates)
            if not references_parent:
                mediated = bool(node.children) and all(
                    any(local.intersection(p.aliases) for p in child.predicates)
                    and any(parent_set.intersection(p.aliases) for p in child.predicates)
                    for child in node.children)
                if not mediated:
                    violations.append(Violation(ViolationKind.CONNECTED_SUBQUERIES, path))
        if len(path) > max_depth:
            violations.append(Violation(ViolationKind.DEPTH_EXCEEDED, path))

    depth_ok = not any(v.kind is ViolationKind.DEPTH_EXCEEDED for v in violations)
    return ValidationReport(depth_ok=depth_ok, violations=tuple(violations))


# ---------------------------------------------------------------------------
# The forall rewrite


def simplify_forall(lt: LogicTree) -> LogicTree:
    """Rewrite not-exists over a single not-exists child into forall/exists.

    Applied top-down to a fixpoint, so in a chain the outermost pair rewrites
    first.  Tables, predicates and tree shape are untouched.
    """
    return LogicTree(root=_simplify(lt.root), select_list=lt.select_list)


def _simplify(node: LtNode) -> LtNode:
    if (node.quantifier is Quantifier.NOT_EXISTS
            and len(node.children) == 1
            and node.children[0].quantifier is Quantifier.NOT_EXISTS):
        child = replace(node.children[0], quantifier=Quantifier.EXISTS)
        node = replace(node, quantifier=Quantifier.FOR_ALL, children=(child,))
    return replace(node, children=tuple(_simplify(c) for c in node.children))


def desimplify(lt: LogicTree) -> LogicTree:
    """Inverse of simplify_forall: restore the not-exists/not-exists form."""
    return LogicTree(root=_desimplify(lt.root), select_list=lt.select_list)


def _desimplify(node: LtNode) -> LtNode:
    children = tuple(_desimplify(c) for c in node.children)
    if node.quantifier is Quantifier.FOR_ALL:
        if len(children) != 1:
            raise ValueError("forall node must have exactly one child")
        child = replace(children[0], quantifier=Quantifier.NOT_EXISTS)
        return replace(node, quantifier=Quantifier.NOT_EXISTS, children=(child,))
    return replace(node, children=children)


# ---------------------------------------------------------------------------
# Rendering


def render_trc(lt: LogicTree) -> str:
    """Deterministic tuple-calculus text for a Logic Tree.

    The root is a set-builder over Q; every other node prints its quantifier,
    bindings and bracketed conjunction.  A forall node separates its own
    predicates from its child with an implication arrow.
    """
    root = lt.root
    bindings = ", ".join(f"∃{alias} ∈ {table}" for alias, table in root.tables)
    parts = [f"{col.sql()} = Q.{col.attribute}" for col in lt.select_list]
    parts += [p.text() for p in root.predicates]
    parts += [_render_node(child) for child in root.children]
    return "{Q | " + bindings + " [" + " ∧ ".join(parts) + "]}"


def _render_node(node: LtNode) -> str:
    q = node.quantifier
    if q is Quantifier.FOR_ALL:
        head = ", ".join(f"∀{alias} ∈ {table}" for alias, table in node.tables)
    else:
        prefix = "¬∃" if q is Quantifier.NOT_EXISTS else "∃"
        head = ", ".join(f"{prefix}{alias} ∈ {table}" for alias, table in node.tables)
    own = [p.text() for p in node.predicates]
    kids = [_render_node(child) for child in node.children]
    if q is Quantifier.FOR_ALL and own and kids:
        body = " ∧ ".join(own) + " → " + " ∧ ".join(kids)
    else:
        body = " ∧ ".join(own + kids)
    if not body:
        return head
    return head + " [" + body + "]"


# ---------------------------------------------------------------------------
# Equality


def lt_equal(a: LogicTree, b: LogicTree, modulo_renaming: bool = False) -> bool:
    """Structural equality of Logic Trees.

    Children are compared as unordered multisets and predicates as sets of
    normalized comparisons.  With modulo_renaming, equality holds if some
    per-kind bijection of alias, table, attribute and constant labels maps
    one tree onto the other.
    """
    if not modulo_renaming:
        sa = tuple(c.sql() for c in a.select_list)
        sb = tuple(c.sql() for c in b.select_list)
        return sa == sb and a.root == b.root
    mapping = _Relabeling()
    if len(a.select_list) != len(b.select_list):
        return False
    for ca, cb in zip(a.select_list, b.select_list):
        if not (mapping.try_pair("alias", ca.alias, cb.alias)
                and mapping.try_pair("attr", ca.attribute, cb.attribute)):
            return False
    return _match_nodes(a.root, b.root, mapping)


class _Relabeling:
    """Per-kind label bijections built up during matching, with undo support."""

    def __init__(self):
        self.forward: dict[tuple[str, object], object] = {}
        self.backward: dict[tuple[str, object], object] = {}
        self.trail: list[tuple[str, object, object]] = []

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


def _match_nodes(a: LtNode, b: LtNode, mapping: _Relabeling) -> bool:
    if a.quantifier is not b.quantifier:
        return False
    if len(a.tables) != len(b.tables) or len(a.predicates) != len(b.predicates):
        return False
    if len(a.children) != len(b.children):
        return False
    return _match_tables(a, b, mapping, 0)


def _match_tables(a: LtNode, b: LtNode, mapping: _Relabeling, i: int) -> bool:
    if i == len(a.tables):
        return _match_predicates(a, b, mapping, list(b.predicates))
    alias_a, table_a = a.tables[i]
    for alias_b, table_b in b.tables:
        mark = mapping.mark()
        if (mapping.try_pair("alias", alias_a, alias_b)
                and mapping.try_pair("table", table_a, table_b)
                and _match_tables(a, b, mapping, i + 1)):
            return True
        mapping.undo(mark)
    return False


def _match_predicates(a: LtNode, b: LtNode, mapping: _Relabeling,
                      remaining: list[Predicate]) -> bool:
    if not a.predicates and not remaining:
        return _match_children(list(a.children), list(b.children), mapping)
    pred_a, rest_a = a.predicates[0], replace(a, predicates=a.predicates[1:])
    for j, pred_b in enumerate(remaining):
        mark = mapping.mark()
        if _match_predicate(pred_a, pred_b, mapping):
            if _match_predicates(rest_a, b, mapping, remaining[:j] + remaining[j + 1:]):
                return True
        mapping.undo(mark)
    return False


def _match_predicate(pa: Predicate, pb: Predicate, mapping: _Relabeling) -> bool:
    # Normalized orientation may differ once labels are renamed, so try both.
    for pb_variant in (pb, _flip(pb)):
        if pa.op != pb_variant.op or pa.is_selection != pb_variant.is_selection:
            continue
        mark = mapping.mark()
        if not (mapping.try_pair("alias", pa.lhs.alias, pb_variant.lhs.alias)
                and mapping.try_pair("attr", pa.lhs.attribute, pb_variant.lhs.attribute)):
            mapping.undo(mark)
            continue
        if isinstance(pa.rhs, ColumnRef):
            assert isinstance(pb_variant.rhs, ColumnRef)
            ok = (mapping.try_pair("alias", pa.rhs.alias, pb_variant.rhs.alias)
                  and mapping.try_pair("attr", pa.rhs.attribute, pb_variant.rhs.attribute))
        else:
            assert isinstance(pb_variant.rhs, Constant)
            ok = (pa.rhs.kind == pb_variant.rhs.kind
                  and mapping.try_pair("const", pa.rhs.literal, pb_variant.rhs.literal))
        if ok:
            return True
        mapping.undo(mark)
    return False


def _flip(pred: Predicate) -> Predicate:
    if pred.is_selection:
        return pred
    assert isinstance(pred.rhs, ColumnRef)
    return Predicate(lhs=pred.rhs, op=FLIPPED_OP[pred.op], rhs=pred.lhs)


def _match_children(kids_a: list[LtNode], kids_b: list[LtNode], mapping: _Relabeling) -> bool:
    if not kids_a:
        return not kids_b
    head, rest = kids_a[0], kids_a[1:]
    for j, cand in enumerate(kids_b):
        mark = mapping.mark()
        if _match_nodes(head, cand, mapping):
            if _match_children(rest, kids_b[:j] + kids_b[j + 1:], mapping):
                return True
        mapping.undo(mark)
    return False


# ---------------------------------------------------------------------------
# JSON serialization


def lt_to_json(lt: LogicTree) -> str:
    doc = _node_to_dict(lt.root)
    doc["select_list"] = [col.sql() for col in lt.select_list]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


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


def lt_from_json(text: str) -> LogicTree:
    doc = json.loads(text)
    root = _node_from_dict(doc)
    select = tuple(_column_from_text(c) for c in doc["select_list"])
    return LogicTree(root=root, select_list=select)


def _node_from_dict(doc: dict) -> LtNode:
    tables = [(alias, table) for alias, table in doc["tables"]]
    predicates = [_pred_from_dict(p) for p in doc["predicates"]]
    children = [_node_from_dict(c) for c in doc["children"]]
    return make_node(tables, predicates, Quantifier(doc["quantifier"]), children)


def _pred_from_dict(doc: dict) -> Predicate:
    rhs: ColumnRef | Constant
    if isinstance(doc["rhs"], dict):
        rhs = Constant(kind=doc["rhs"]["kind"], literal=doc["rhs"]["literal"])
    else:
        rhs = _column_from_text(doc["rhs"])
    return Predicate(lhs=_column_from_text(doc["lhs"]), op=doc["op"], rhs=rhs)


def _column_from_text(text: str) -> ColumnRef:
    alias, _, attribute = text.partition(".")
    return ColumnRef(alias=alias, attribute=attribute)


# ---------------------------------------------------------------------------
# Back to SQL


def lt_to_sql(lt: LogicTree) -> str:
    """Render a Logic Tree as SQL of the fragment (forall nodes are first
    rewritten back to nested NOT EXISTS)."""
    plain = desimplify(lt)
    select = ", ".join(col.sql() for col in plain.select_list)
    return _block_sql(plain.root, select)


def _block_sql(node: LtNode, select: str) -> str:
    text = f"SELECT {select} FROM " + ", ".join(
        table if alias == table else f"{table} {alias}" for alias, table in node.tables)
    parts = [p.text() for p in node.predicates]
    for child in node.children:
        keyword = "NOT EXISTS" if child.quantifier is Quantifier.NOT_EXISTS else "EXISTS"
        parts.append(f"{keyword} ({_block_sql(child, '*')})")
    if parts:
        text += " WHERE " + " AND ".join(parts)
    return text
