"""Logic Tree: the canonical semantic form of a query.

Each node is one query block: its tables, its conjunctive predicates and
the quantifier applied to them.  [NOT] EXISTS (S) lowers to an exists
(not-exists) child.  Every quantified comparison `[NOT] x op ANY|ALL (S)`,
x [NOT] IN (S) being [NOT] x = ANY (S), lowers by one rule: the child is
not-exists exactly when negated != (mode == "ALL"), and it gains the link
`x op c` to S's one select column c, op complemented under ALL.  FOR_ALL
never comes out of lowering; simplify_forall alone brings it in, rewriting a
not-exists node with a single not-exists child into forall/exists.  A
predicate is the parser's own sqlast.Comparison; lt_to_sql prints through
print_sql.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum
from operator import is_

from .errors import MalformedSubqueryError
from .sqlast import (
    COMPLEMENT_OP,
    FLIPPED_OP,
    ColumnRef,
    Comparison,
    Comparison as Predicate,  # a comparison whose operands are fully qualified
    Constant,
    Exists,
    QueryAst,
    TableRef,
    print_sql,
)


class Quantifier(Enum):
    ROOT = "ROOT"
    EXISTS = "EXISTS"
    NOT_EXISTS = "NOT_EXISTS"
    FOR_ALL = "FOR_ALL"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    root = _lower_block(ast, Quantifier.ROOT, ())
    return LogicTree(root=root, select_list=ast.select_list)


def _qualified(col: ColumnRef) -> ColumnRef:
    if col.alias is None:
        raise ValueError(f"column {col.attribute!r} is unqualified; run resolve_scopes first")
    return col


def _lower_block(block: QueryAst, quantifier: Quantifier,
                 extra_predicates: tuple[Predicate, ...]) -> LtNode:
    for col in block.select_list:
        _qualified(col)
    predicates: list[Predicate] = list(extra_predicates)
    children: list[LtNode] = []
    for pred in block.where_clause:
        if isinstance(pred, Comparison):
            _qualified(pred.lhs)
            if isinstance(pred.rhs, ColumnRef):
                _qualified(pred.rhs)
            predicates.append(pred)
        elif isinstance(pred, Exists):
            q = Quantifier.NOT_EXISTS if pred.negated else Quantifier.EXISTS
            children.append(_lower_block(pred.subquery, q, ()))
        else:  # the one rule for ANY and ALL; see the module docstring
            column, every = _qualified(pred.column), pred.mode == "ALL"
            select_list = pred.subquery.select_list
            if len(select_list) != 1:
                raise MalformedSubqueryError(
                    f"IN/ANY/ALL subquery must select exactly one column, got "
                    f"{len(select_list) or 'SELECT *'}", column.line, column.column)
            link = Predicate(lhs=column, op=COMPLEMENT_OP[pred.op] if every else pred.op,
                             rhs=select_list[0])
            q = Quantifier.NOT_EXISTS if pred.negated != every else Quantifier.EXISTS
            children.append(_lower_block(pred.subquery, q, (link,)))
    tables = [(ref.alias, ref.table_name) for ref in block.from_list]
    return make_node(tables, predicates, quantifier, children)


# ---------------------------------------------------------------------------
# Validation (non-degeneracy and depth)

# The deepest nesting that structure recovery reads back from a diagram, and
# the bound is tight: one level deeper, one diagram can draw two queries.  The
# 5-group path g1->g2, g2->g0, g3->g1, g3->g4, g4->g2 (root g0) has no
# structure of depth 3 or less and two of depth 4, in which g1 and g4 swap.
# Deeper blocks are reported DEPTH_EXCEEDED.
MAX_DEPTH = 3


class ViolationKind(Enum):
    LOCAL_ATTRIBUTES = "LocalAttributes"
    CONNECTED_SUBQUERIES = "ConnectedSubqueries"
    DEPTH_EXCEEDED = "DepthExceeded"


@dataclass(frozen=True, slots=True)
class Violation:
    kind: ViolationKind
    node_path: tuple[int, ...]
    predicate: Predicate | None = None

    def __str__(self) -> str:
        where = "/".join(map(str, self.node_path)) or "root"
        if self.predicate is not None:
            return f"{self.kind.value} at node {where}: {self.predicate.text()}"
        return f"{self.kind.value} at node {where}"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def depth_ok(self) -> bool:
        return not any(v.kind is ViolationKind.DEPTH_EXCEEDED for v in self.violations)


def check_nondegenerate(lt: LogicTree) -> ValidationReport:
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
        if len(path) > MAX_DEPTH:
            violations.append(Violation(ViolationKind.DEPTH_EXCEEDED, path))
    return ValidationReport(violations=tuple(violations))


# ---------------------------------------------------------------------------
# The forall rewrite


def simplify_forall(lt: LogicTree) -> LogicTree:
    """Rewrite not-exists over a single not-exists child into forall/exists.

    Applied top-down to a fixpoint, so in a chain the outermost pair rewrites
    first.  Tables, predicates and tree shape are untouched, and every
    subtree the rewrite leaves unchanged is the input's own node: the root
    itself when no rewrite applies.
    """
    return LogicTree(root=_simplify(lt.root), select_list=lt.select_list)


def _simplify(node: LtNode) -> LtNode:
    if (node.quantifier is Quantifier.NOT_EXISTS
            and len(node.children) == 1
            and node.children[0].quantifier is Quantifier.NOT_EXISTS):
        child = replace(node.children[0], quantifier=Quantifier.EXISTS)
        return replace(node, quantifier=Quantifier.FOR_ALL, children=(_simplify(child),))
    children = tuple(_simplify(c) for c in node.children)
    if all(map(is_, children, node.children)):
        return node
    return replace(node, children=children)


# ---------------------------------------------------------------------------
# Rendering


def render_trc(lt: LogicTree) -> str:
    """Deterministic tuple-calculus text for a Logic Tree.

    Every node prints its quantifier, bindings and bracketed conjunction; the
    root prints as an exists node inside a set-builder over Q, its conjunction
    led by the select bindings.  A forall node separates its own predicates
    from its child with an implication arrow.
    """
    select = tuple(f"{col.sql()} = Q.{col.attribute}" for col in lt.select_list)
    return "{Q | " + _render_node(lt.root, select) + "}"


def _render_node(node: LtNode, leading: tuple[str, ...] = ()) -> str:
    q = node.quantifier
    if q is Quantifier.FOR_ALL:
        head = ", ".join(f"∀{alias} ∈ {table}" for alias, table in node.tables)
    else:
        prefix = "¬∃" if q is Quantifier.NOT_EXISTS else "∃"
        head = ", ".join(f"{prefix}{alias} ∈ {table}" for alias, table in node.tables)
    own = [*leading, *map(Predicate.text, node.predicates)]
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
    one tree onto the other.  That search pairs tables, then predicates
    (each in both orientations), then children, node by node, and backtracks
    through every alternative before answering false.  It prunes by subtree
    codes that no relabelling changes (see _codes), made in one pass over
    each tree at the first two nodes with two or more children each: from
    then on, any two nodes pair only when their codes are equal.  A node
    shared by two parents keeps the pruning unless its two codes differ;
    then the call prunes nothing.  Where codes tie, the backtracking stays
    exhaustive, so alike siblings that no relabelling matches can still cost
    time factorial in their number.
    """
    if not modulo_renaming:
        return a == b
    if len(a.select_list) != len(b.select_list):
        return False
    mapping = _Relabeling()
    select = [pair for ca, cb in zip(a.select_list, b.select_list)
              for pair in (("alias", ca.alias, cb.alias), ("attr", ca.attribute, cb.attribute))]
    codes = None  # both trees' codes, made at first need; () when a shared node's codes clash

    def pair_nodes(x: LtNode, y: LtNode):
        nonlocal codes
        if x.quantifier is not y.quantifier or len(x.children) != len(y.children):
            return
        if codes is None and len(x.children) >= 2:
            interned: dict[tuple, int] = {}
            codes = (_codes(a.root, interned), _codes(b.root, interned))
            codes = () if None in codes else codes
        if codes and codes[0][id(x)] != codes[1][id(y)]:
            return
        for _ in mapping.pair_all(x.tables, y.tables, pair_tables):
            for _ in mapping.pair_all(x.predicates, y.predicates, pair_predicates):
                yield from mapping.pair_all(x.children, y.children, pair_nodes)

    def pair_tables(x: tuple[str, str], y: tuple[str, str]):
        return mapping.pair(("alias", x[0], y[0]), ("table", x[1], y[1]))

    def pair_predicates(x: Predicate, y: Predicate):
        if isinstance(x.rhs, Constant):
            if x.op == y.op and isinstance(y.rhs, Constant) and x.rhs.kind == y.rhs.kind:
                yield from mapping.pair(("alias", x.lhs.alias, y.lhs.alias),
                                        ("attr", x.lhs.attribute, y.lhs.attribute),
                                        ("const", x.rhs.literal, y.rhs.literal))
            return
        if isinstance(y.rhs, Constant):
            return
        # Normalized orientation may differ once labels are renamed, so try both.
        for op, lhs, rhs in ((y.op, y.lhs, y.rhs), (FLIPPED_OP[y.op], y.rhs, y.lhs)):
            if x.op == op:
                yield from mapping.pair(("alias", x.lhs.alias, lhs.alias),
                                        ("attr", x.lhs.attribute, lhs.attribute),
                                        ("alias", x.rhs.alias, rhs.alias),
                                        ("attr", x.rhs.attribute, rhs.attribute))

    for _ in mapping.pair(*select):
        for _ in pair_nodes(a.root, b.root):
            return True
    return False


def _codes(root: LtNode, interned: dict[tuple, int]) -> dict[int, int] | None:
    """Each node's code by the node's id: a code of its subtree that every
    relabelling keeps, in the manner of Aho, Hopcroft and Ullman's tree
    isomorphism (1974).  It is the quantifier, the table count, the sorted
    predicate shapes and the sorted codes of the children, interned to an
    int by `interned`, which both trees of one comparison share.  A shape
    writes each operand as a depth offset, 0 for the node's own block, 1 for
    its parent and so on, resolved to the nearest declaration of its alias,
    and -1 for an alias no enclosing block declares; a join takes the lesser
    of its two orientations, so its operand order does not count.  The walk
    goes down once, carrying each alias's depth of nearest declaration, and
    codes each node after its children.  None when some node object, shared
    by two parents, gets two different codes."""
    order = []
    stack: list[tuple[LtNode, int, dict[str, int]]] = [(root, 0, {})]
    while stack:
        node, depth, scope = stack.pop()
        scope = scope | {alias: depth for alias, _ in node.tables}
        order.append((node, depth, scope))
        for child in node.children:
            stack.append((child, depth + 1, scope))
    codes: dict[int, int] = {}
    for node, depth, scope in reversed(order):  # every node after its descendants
        shapes = []
        for p in node.predicates:
            lhs = depth - scope.get(p.lhs.alias, depth + 1)
            if isinstance(p.rhs, Constant):
                shapes.append((False, lhs, p.op, p.rhs.kind))
            else:
                rhs = depth - scope.get(p.rhs.alias, depth + 1)
                shapes.append(min((True, lhs, p.op, rhs), (True, rhs, FLIPPED_OP[p.op], lhs)))
        kids = sorted([codes[id(child)] for child in node.children])
        key = (node.quantifier.value, len(node.tables), tuple(sorted(shapes)), tuple(kids))
        code = interned.setdefault(key, len(interned))
        if codes.setdefault(id(node), code) != code:
            return None
    return codes


_EXHAUSTED = object()


class _Relabeling:
    """Per-kind label bijections and one exhaustive backtracking search over them.

    A pairing of two items is a generator: it yields once for each way it can
    extend the bijections to map x onto y, leaves them extended while it is
    suspended, and takes its own pairs back before it tries the next way or
    ends.
    """

    def __init__(self):
        self.forward: dict[tuple[str, object], object] = {}
        self.backward: dict[tuple[str, object], object] = {}

    def pair(self, *pairs: tuple[str, object, object]) -> Iterator[None]:
        """Yield once if every (kind, x, y) fits the bijections, with them added."""
        forward, backward = self.forward, self.backward
        added = []
        for kind, x, y in pairs:
            fwd = forward.get((kind, x))
            bwd = backward.get((kind, y))
            if fwd is None and bwd is None:
                forward[(kind, x)] = y
                backward[(kind, y)] = x
                added.append((kind, x, y))
            elif fwd != y or bwd != x:
                break
        else:
            yield
        for kind, x, y in added:
            del forward[(kind, x)]
            del backward[(kind, y)]

    def pair_all(self, xs, ys, pair_one) -> Iterator[None]:
        """Yield once for each way of pairing every x with a distinct y, where
        pair_one(x, y) is the pairing generator of one item.  The partial
        pairings are kept on an explicit stack, so the call depth does not
        grow with the number of siblings."""
        if len(xs) != len(ys):
            return
        if not xs:
            yield
            return
        free = [True] * len(ys)

        def ways(x):
            for j, y in enumerate(ys):
                if free[j]:
                    free[j] = False
                    yield from pair_one(x, y)
                    free[j] = True

        stack = [ways(xs[0])]
        while stack:
            if next(stack[-1], _EXHAUSTED) is _EXHAUSTED:
                stack.pop()
            elif len(stack) == len(xs):
                yield
            else:
                stack.append(ways(xs[len(stack)]))


# ---------------------------------------------------------------------------
# JSON serialization


def lt_to_json(lt: LogicTree) -> str:
    """Canonical JSON of a Logic Tree, plus a newline."""
    doc = _node_doc(lt.root)
    doc["select_list"] = [col.sql() for col in lt.select_list]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _node_doc(node: LtNode) -> dict:
    return {
        "tables": node.tables,  # json.dumps writes tuples as arrays
        "predicates": [{"lhs": p.lhs.sql(), "op": p.op,
                        "rhs": p.rhs.sql() if isinstance(p.rhs, ColumnRef)
                        else {"kind": p.rhs.kind, "literal": p.rhs.literal}}
                       for p in node.predicates],
        "quantifier": node.quantifier.value,
        "children": [_node_doc(child) for child in node.children],
    }


# ---------------------------------------------------------------------------
# Back to SQL


# A child with one of these quantifiers prints as NOT EXISTS under any parent.
_PRINTED_NOT_EXISTS = (Quantifier.NOT_EXISTS, Quantifier.FOR_ALL)


def lt_to_sql(lt: LogicTree) -> str:
    """Render a Logic Tree as SQL of the fragment.  A forall node and its one
    child both print as NOT EXISTS, the nesting simplify_forall rewrote."""
    return print_sql(_block_ast(lt.root, lt.select_list))


def _block_ast(node: LtNode, select_list: tuple[ColumnRef, ...]) -> QueryAst:
    forall = node.quantifier is Quantifier.FOR_ALL
    if forall and len(node.children) != 1:
        raise ValueError("forall node must have exactly one child")
    subqueries = [Exists(forall or child.quantifier in _PRINTED_NOT_EXISTS, _block_ast(child, ()))
                  for child in node.children]
    return QueryAst(select_list, tuple([TableRef(table, alias) for alias, table in node.tables]),
                    node.predicates + tuple(subqueries))
