"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact unless a runtime bound is stated.
"""

import itertools
import json
import random
import time

from sqldiagram import (
    Quantifier,
    ViolationKind,
    brute_force_depths,
    build_diagram,
    build_logic_tree,
    check_nondegenerate,
    count_elements,
    count_words,
    diagram_isomorphic,
    diagram_to_graph,
    emit_dot,
    lt_equal,
    parse,
    reading_order,
    recover_depths,
    resolve_scopes,
    simplify_forall,
)
from sqldiagram.cli import run
from sqldiagram.corpus import random_logic_tree
from sqldiagram.errors import InvalidDiagramError
from sqldiagram.fixtures import (
    ONLY_LIKED_DRINKS,
    ONLY_RED_VARIANTS,
    OWL_SELECTION_BURIED,
    PATTERN_GRID,
    SOME_LIKED_DRINK,
    UNIQUE_BEER_SET,
    VALID_QUERIES,
)

from evaluate_reference import evaluate, random_database
from graphs import depths_of, make_graph, path_family


def lower(sql):
    return build_logic_tree(resolve_scopes(parse(sql)))


def diagram_of(sql, **kwargs):
    return build_diagram(lower(sql), **kwargs)


def _passed(number, message):
    print(f"ACCEPTANCE {number} PASS: {message}")


def test_criterion_01_syntactic_variant_canonicalization():
    start = time.perf_counter()
    trees = [lower(sql) for sql in ONLY_RED_VARIANTS]
    assert lt_equal(trees[0], trees[1], modulo_renaming=False)
    assert lt_equal(trees[0], trees[2], modulo_renaming=False)
    assert lt_equal(trees[1], trees[2], modulo_renaming=False)
    docs = [emit_dot(build_diagram(t)).encode() for t in trees]
    assert docs[0] == docs[1] == docs[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"three subquery variants share one logic tree and byte-identical "
               f"DOT ({elapsed:.3f}s)")


def test_criterion_02_unique_set_pipeline():
    start = time.perf_counter()
    lt = lower(UNIQUE_BEER_SET)

    aliases = sorted(a for _, node, _ in lt.walk() for a in node.aliases)
    assert aliases == ["L1", "L2", "L3", "L4", "L5", "L6"]
    assert all(table == "Likes" for _, node, _ in lt.walk() for _, table in node.tables)
    assert depths_of(lt) == {"L1": 0, "L2": 1, "L3": 2, "L4": 3, "L5": 2, "L6": 3}
    l2 = lt.root.children[0]
    assert l2.aliases == ("L2",)
    assert len(l2.children) == 2
    assert all(c.quantifier is Quantifier.NOT_EXISTS for c in l2.children)

    simplified = simplify_forall(lt)
    quantifiers = {a: node.quantifier for _, node, _ in simplified.walk()
                   for a in node.aliases}
    assert quantifiers == {
        "L1": Quantifier.ROOT, "L2": Quantifier.NOT_EXISTS,
        "L3": Quantifier.FOR_ALL, "L4": Quantifier.EXISTS,
        "L5": Quantifier.FOR_ALL, "L6": Quantifier.EXISTS}

    d = build_diagram(lt)
    edges = {(e.src[0], e.dst[0], e.label, e.directed) for e in d.edges}
    assert edges == {
        ("L1", "L2", "<>", True),
        ("L2", "L3", None, True),
        ("L3", "L4", None, True),
        ("L4", "L1", None, True),
        ("L5", "L1", None, True),
        ("L5", "L6", None, True),
        ("L6", "L2", None, True)}
    assert d.select_box == (("L1", "drinker"),)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(2, f"unique-set query: tree, forall rewrite and arrow-rule edge set "
               f"all exact ({elapsed:.3f}s)")


def test_criterion_03_reading_order():
    d = diagram_of(UNIQUE_BEER_SET)
    order = reading_order(d)
    alias_of = {g.id: g.tables[0].alias for g in d.groups}
    assert [alias_of[g] for g in order.visit_order] == ["L1", "L2", "L3", "L4", "L5", "L6"]
    assert [alias_of[g] for g in order.restarts] == ["L5"]
    _passed(3, "traversal reads L1,L2,L3,L4 then restarts at the source L5 and reads L6")


def test_criterion_04_unambiguity_on_generated_corpus():
    start = time.perf_counter()
    rng = random.Random(20200131)
    checked = 0
    while checked < 200:
        lt = random_logic_tree(rng)
        d = build_diagram(lt)
        graph = diagram_to_graph(d)
        assignment = recover_depths(graph)

        truth_depth = depths_of(lt)
        parent_of_alias = {}
        for _, node, parent in lt.walk():
            for alias in node.aliases:
                parent_of_alias[alias] = parent.aliases[0] if parent else None
        group_alias = {g.id: g.tables[0].alias for g in d.groups}
        group_of_alias = {b.alias: g.id for g in d.groups for b in g.tables}
        for gid, alias in group_alias.items():
            assert assignment.depths[gid] == truth_depth[alias]
            expected_parent = parent_of_alias[alias]
            if expected_parent is None:
                assert gid not in assignment.parents
            else:
                assert assignment.parents[gid] == group_of_alias[expected_parent]

        survivors = brute_force_depths(graph)
        assert len(survivors) == 1
        assert survivors[0] == assignment
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(4, f"200/200 generated diagrams recovered exactly; brute force found a "
               f"single structure every time ({elapsed:.1f}s)")


def test_criterion_05_path_pattern_census():
    class_edges = {"A": ("r", "n1"), "B": ("n1", "n2"), "C": ("n2", "r"),
                   "D": ("n2", "n3"), "E": ("n3", "n1"), "F": ("n3", "r")}
    true_depths = {"r": 0, "n1": 1, "n2": 2, "n3": 3}
    census = {"A,B": 0, "A,not-B": 0, "not-A": 0}
    for bits in itertools.product((False, True), repeat=6):
        present = [c for c, keep in zip("ABCDEF", bits) if keep]
        g = make_graph(["r", "n1", "n2", "n3"],
                       [class_edges[c] for c in present], "r")
        try:
            assignment = recover_depths(g)
        except InvalidDiagramError:
            continue
        if assignment.depths == true_depths:
            census[path_family(g, assignment)] += 1
    assert sum(census.values()) == 16
    assert census["A,B"] == 8
    assert census["A,not-B"] == 4
    assert census["not-A"] == 4
    _passed(5, "exhaustive edge-subset census: 16 valid depth-3 path patterns, "
               "split 8/4/4 across the families")


def test_criterion_06_degeneracy_detection():
    report = check_nondegenerate(lower(OWL_SELECTION_BURIED))
    assert not report.ok
    (violation,) = report.violations
    assert violation.kind is ViolationKind.LOCAL_ATTRIBUTES
    assert violation.predicate.text() == "F.bar = 'Owl'"
    assert len(VALID_QUERIES) == 12
    for name, sql in VALID_QUERIES.items():
        assert check_nondegenerate(lower(sql)).ok, name
    _passed(6, "buried-selection query rejected by the local-attribute rule; "
               "all 12 fixtures validate")


def test_criterion_07_simplification_soundness():
    start = time.perf_counter()
    rng = random.Random(424242)
    for _ in range(100):
        lt = random_logic_tree(rng)
        simplified = simplify_forall(lt)
        for _ in range(50):
            db = random_database(rng, lt, max_rows=2, domain=(0, 1, 2))
            assert evaluate(lt, db) == evaluate(simplified, db)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(7, f"100 trees x 50 instances: result sets identical before and after "
               f"the forall rewrite ({elapsed:.1f}s)")


def test_criterion_08_cross_schema_pattern_isomorphism():
    diagrams = {name: [diagram_of(sql) for sql in column]
                for name, column in PATTERN_GRID.items()}
    for name, ds in diagrams.items():
        for a, b in itertools.combinations(ds, 2):
            assert diagram_isomorphic(a, b), name
    for left, right in itertools.combinations(diagrams, 2):
        for a, b in itertools.product(diagrams[left], diagrams[right]):
            assert not diagram_isomorphic(a, b), (left, right)
    _passed(8, "nine pattern-grid diagrams isomorphic exactly within the "
               "no/only/all columns")


def test_criterion_09_verbosity_growth():
    e_plain = count_elements(diagram_of(SOME_LIKED_DRINK))
    e_raw = count_elements(diagram_of(ONLY_LIKED_DRINKS, simplified=False))
    e_simplified = count_elements(diagram_of(ONLY_LIKED_DRINKS))
    w_plain = count_words(SOME_LIKED_DRINK)
    w_nested = count_words(ONLY_LIKED_DRINKS)
    assert e_simplified <= e_raw
    assert e_simplified / e_plain < w_nested / w_plain
    _passed(9, f"element growth {e_plain}->{e_simplified} "
               f"({100 * (e_simplified - e_plain) / e_plain:.0f}%) stays below word "
               f"growth {w_plain}->{w_nested} "
               f"({100 * (w_nested - w_plain) / w_plain:.0f}%)")


def test_criterion_10_cli_byte_stability(tmp_path, capsys):
    def capture(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fixtures = dict(VALID_QUERIES)
    fixtures["owl_selection_buried"] = OWL_SELECTION_BURIED
    runs = 0
    for name, sql in fixtures.items():
        sql_path = tmp_path / f"{name}.sql"
        sql_path.write_text(sql, encoding="utf-8")
        diagram_path = tmp_path / f"{name}.json"
        commands = [
            ["viz", str(sql_path)],
            ["viz", "--no-simplify", str(sql_path)],
            ["viz", "--format", "json", str(sql_path)],
            ["lt", str(sql_path)],
            ["lt", "--no-simplify", str(sql_path)],
            ["trc", str(sql_path)],
            ["check", str(sql_path)],
            ["metrics", str(sql_path)],
            ["roundtrip", str(sql_path)],
        ]
        code, out, err = capture(["viz", "--format", "json", str(sql_path),
                                  "-o", str(diagram_path)])
        if code == 0:
            commands.append(["recover", str(diagram_path)])
        for argv in commands:
            first = capture(argv)
            second = capture(argv)
            assert first == second, (name, argv)
            runs += 1
    _passed(10, f"{runs} command invocations byte-stable across consecutive runs")
