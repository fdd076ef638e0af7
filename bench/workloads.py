"""The four benchmark workloads: their inputs, one op each, and the checks.

A workload builds a list of rounds from its seed during set-up.  A round is
a short, balanced mix of cases (one case is the input of one op plus the
reference its output must match); the timed loop plays rounds in a cycle and
reports per-round medians, so every round costs about the same.

Every check compares against a reference that does not come from the code
under test: the generator's own tree, the nesting read off the SQL text by
`inputs.sql_nesting`, the committed DOT goldens, or the answer an
isomorphism pair was built to have.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from inputs import (
    count_blocks,
    exact_size_tree,
    relabelled,
    sql_nesting,
    symmetric_tree,
    tree_truth,
    wide_tree,
    with_one_lt,
)
from sqldiagram.diagram import build_diagram, diagram_to_json
from sqldiagram.fixtures import PATTERN_GRID, VALID_QUERIES
from sqldiagram.logic import build_logic_tree, lt_to_sql
from sqldiagram.parser import parse, tokenize
from sqldiagram.scopes import resolve_scopes

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

CORPUS_ROUNDS = 64
CORPUS_SIZES = range(1, 13)
WIDE_KS = (10, 100, 300)
WIDE_ROUNDS = 2
ORACLE_SIZES = (8, 9, 10, 11)
ORACLE_ROUNDS = 128
ISO_KS = (4, 5, 6)
ISO_ROUNDS = 2


@dataclass(frozen=True)
class Case:
    kind: str  # size class, e.g. "g301" or "k6-non"; groups latency by class
    payload: object  # what the op hands the program
    expect: object  # the reference


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[list[Case]]]
    op: Callable[[SimpleNamespace, Case], object]
    check: Callable[[Case, object], bool]
    sizes: Callable[[Case, object], dict[str, float]]
    probe: Callable[[SimpleNamespace, Case], None] | None = None  # traced run only, untimed


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- shared checks ------------------------------------------------------------


def structure_ok(diagram, assignment, truth: dict[str, tuple[int, str | None]]) -> bool:
    """Recovered depths and parents equal the reference tree, mapping each
    group to its alphabetically first alias."""
    group_alias = {g.id: min(box.alias for box in g.tables) for g in diagram.groups}
    group_of = {box.alias: g.id for g in diagram.groups for box in g.tables}
    if set(group_of) != set(truth) or set(assignment.depths) != set(group_alias):
        return False
    if len(assignment.parents) != len(group_alias) - 1:
        return False
    for gid, alias in group_alias.items():
        depth, parent_alias = truth[alias]
        expected_parent = group_of[parent_alias] if parent_alias is not None else None
        if assignment.depths[gid] != depth or assignment.parents.get(gid) != expected_parent:
            return False
    return True


def dot_ok(dot: bytes, truth: dict, golden: bytes | None) -> bool:
    if golden is not None:
        return dot == golden
    return dot.startswith(b"digraph ") and all(
        f"t_{alias} [label=<".encode() in dot for alias in truth)


def _predicates(lt) -> int:
    stack, total = [lt.root], 0
    while stack:
        node = stack.pop()
        total += len(node.predicates)
        stack.extend(node.children)
    return total


def _goldens() -> dict[str, bytes]:
    return {path.stem: path.read_bytes() for path in sorted(GOLDEN_DIR.glob("*.dot"))}


# -- corpus_compile -----------------------------------------------------------


@dataclass(frozen=True)
class CompileRef:
    truth: dict
    lt: object  # the generator's tree, None for fixtures
    golden: bytes | None


def build_corpus(seed: int) -> list[list[Case]]:
    rng = _rng("corpus_compile", seed)
    goldens = _goldens()
    fixtures = [Case("fixture", sql, CompileRef(sql_nesting(sql), None, goldens.get(name)))
                for name, sql in VALID_QUERIES.items()]
    rounds = []
    for _ in range(CORPUS_ROUNDS):
        generated = []
        for groups in CORPUS_SIZES:
            lt = exact_size_tree(rng, groups)
            generated.append(Case(f"g{groups}", lt_to_sql(lt),
                                  CompileRef(tree_truth(lt), lt, None)))
        rounds.append([case for pair in zip(fixtures, generated) for case in pair])
    return rounds


def compile_op(L, case):
    lt = L.build_logic_tree(L.resolve_scopes(L.parse(case.payload)))
    report = L.check_nondegenerate(lt)
    diagram = L.build_diagram(lt, allow_invalid=True)
    dot = L.emit_dot(diagram)
    text = L.diagram_to_json(diagram)
    recovered = L.recover_depths(L.diagram_to_graph(diagram))
    dot = getattr(dot, "text", dot)  # emit_dot returns a one-field DotDocument today
    return SimpleNamespace(lt=lt, valid=report.ok, diagram=diagram, dot=dot, json=text,
                           recovered=recovered)


def check_compile(case, out) -> bool:
    ref = case.expect
    if not out.valid or not structure_ok(out.diagram, out.recovered, ref.truth):
        return False
    if ref.lt is not None and (out.lt.root != ref.lt.root
                               or out.lt.select_list != ref.lt.select_list):
        return False
    doc = json.loads(out.json)
    aliases = {box["alias"] for group in doc["groups"] for box in group["tables"]}
    return aliases == set(ref.truth) and dot_ok(out.dot.encode(), ref.truth, ref.golden)


def compile_sizes(case, out) -> dict[str, float]:
    return {"tokens": len(tokenize(case.payload)), "blocks": count_blocks(out.lt),
            "predicates": _predicates(out.lt), "groups": len(out.diagram.groups),
            "edges": len(out.diagram.edges), "dot_bytes": len(out.dot.encode()),
            "json_bytes": len(out.json.encode())}


def probe_compile(L, case) -> None:
    """The lexer alone, and the `viz` command run in this process."""
    L.tokenize(case.payload)
    code, dot = L.cli_run(["viz"], case.payload)
    if code != 0 or not dot_ok(dot.encode(), case.expect.truth, case.expect.golden):
        raise RuntimeError(f"sqldiagram viz exited with {code} or printed a wrong diagram")


# -- wide_recover -------------------------------------------------------------


def build_wide(seed: int) -> list[list[Case]]:
    rng = _rng("wide_recover", seed)
    rounds = []
    for _ in range(WIDE_ROUNDS):
        rnd = []
        for k in WIDE_KS:
            lt = wide_tree(rng, k)
            rnd.append(Case(f"g{3 * k + 1}", diagram_to_json(build_diagram(lt)), tree_truth(lt)))
        rounds.append(rnd)
    return rounds


def recover_op(L, case):
    diagram = L.diagram_from_json(case.payload)
    return diagram, L.recover_depths(L.diagram_to_graph(diagram))


def check_recover(case, out) -> bool:
    return structure_ok(*out, case.expect)


def recover_sizes(case, out) -> dict[str, float]:
    diagram = out[0]
    return {"groups": len(diagram.groups), "edges": len(diagram.edges),
            "json_bytes": len(case.payload.encode())}


# -- oracle_roundtrip ---------------------------------------------------------


def build_oracle(seed: int) -> list[list[Case]]:
    rng = _rng("oracle_roundtrip", seed)
    rounds = []
    for _ in range(ORACLE_ROUNDS):
        rnd = []
        for groups in ORACLE_SIZES:
            lt = exact_size_tree(rng, groups)
            rnd.append(Case(f"g{groups}", lt_to_sql(lt), tree_truth(lt)))
        rounds.append(rnd)
    return rounds


def roundtrip_op(L, case):
    """The library path of `sqldiagram roundtrip`: compile, recover, then the oracle."""
    lt = L.build_logic_tree(L.resolve_scopes(L.parse(case.payload)))
    report = L.check_nondegenerate(lt)
    diagram = L.build_diagram(lt, allow_invalid=True)
    graph = L.diagram_to_graph(diagram)
    recovered = L.recover_depths(graph)
    survivors = L.brute_force_depths(graph)
    return SimpleNamespace(lt=lt, valid=report.ok, diagram=diagram, recovered=recovered,
                           survivors=survivors)


def check_roundtrip(case, out) -> bool:
    return (out.valid and structure_ok(out.diagram, out.recovered, case.expect)
            and len(out.survivors) == 1 and out.survivors[0] == out.recovered)


def roundtrip_sizes(case, out) -> dict[str, float]:
    return {"tokens": len(tokenize(case.payload)), "blocks": count_blocks(out.lt),
            "predicates": _predicates(out.lt), "groups": len(out.diagram.groups),
            "edges": len(out.diagram.edges), "survivors": len(out.survivors)}


# -- symmetric_iso ------------------------------------------------------------


def build_iso(seed: int) -> list[list[Case]]:
    rng = _rng("symmetric_iso", seed)
    grid = []
    for column, queries in PATTERN_GRID.items():
        for sql in queries:
            lt = build_logic_tree(resolve_scopes(parse(sql)))
            grid.append((column, lt, build_diagram(lt)))
    grid_cases = [Case("grid", (a[1], b[1], a[2], b[2]), a[0] == b[0])
                  for a, b in itertools.combinations(grid, 2)]
    rounds = []
    for _ in range(ISO_ROUNDS):
        synthetic = []
        for k in ISO_KS:
            base = symmetric_tree(rng, k)
            same = relabelled(rng, base)
            other = relabelled(rng, with_one_lt(rng, base))
            for kind, copy, answer in ((f"k{k}-iso", same, True), (f"k{k}-non", other, False)):
                synthetic.append(Case(kind, (base, copy, build_diagram(base), build_diagram(copy)),
                                      answer))
        rounds.append(grid_cases + synthetic)
    return rounds


def iso_op(L, case):
    lt_a, lt_b, d_a, d_b = case.payload
    return L.lt_equal(lt_a, lt_b, modulo_renaming=True), L.diagram_isomorphic(d_a, d_b)


def check_iso(case, out) -> bool:
    return out == (case.expect, case.expect)


def iso_sizes(case, out) -> dict[str, float]:
    lt_a, lt_b, d_a, d_b = case.payload
    return {"blocks": count_blocks(lt_a) + count_blocks(lt_b),
            "predicates": _predicates(lt_a) + _predicates(lt_b),
            "groups": len(d_a.groups) + len(d_b.groups),
            "edges": len(d_a.edges) + len(d_b.edges)}


WORKLOADS = {
    w.name: w for w in (
        Workload("corpus_compile", build_corpus, compile_op, check_compile, compile_sizes,
                 probe=probe_compile),
        Workload("wide_recover", build_wide, recover_op, check_recover, recover_sizes),
        Workload("oracle_roundtrip", build_oracle, roundtrip_op, check_roundtrip,
                 roundtrip_sizes),
        Workload("symmetric_iso", build_iso, iso_op, check_iso, iso_sizes),
    )
}
