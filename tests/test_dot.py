import pathlib
import re

from sqldiagram import (
    build_diagram,
    build_logic_tree,
    diagram_from_json,
    diagram_to_json,
    emit_dot,
    parse,
    resolve_scopes,
)
from sqldiagram.diagram import AttributeRow, Diagram, Edge, SelectionRow, TableBox, TableGroup
from sqldiagram.fixtures import (
    ONLY_LIKED_DRINKS,
    SOME_LIKED_DRINK,
    UNIQUE_BEER_SET,
    VALID_QUERIES,
)
from sqldiagram.logic import Quantifier
from sqldiagram.sqlast import Constant

GOLDEN = pathlib.Path(__file__).parent / "golden"


def diagram_of(sql, **kwargs):
    return build_diagram(build_logic_tree(resolve_scopes(parse(sql))), **kwargs)


def test_conjunctive_golden_snapshot():
    text = emit_dot(diagram_of(SOME_LIKED_DRINK))
    assert text == (GOLDEN / "some_liked_drink.dot").read_text()


def test_unique_set_golden_snapshot():
    text = emit_dot(diagram_of(UNIQUE_BEER_SET))
    assert text == (GOLDEN / "unique_beer_set.dot").read_text()


def test_conjunctive_statement_counts():
    text = emit_dot(diagram_of(SOME_LIKED_DRINK))
    assert text.count("label=<") == 4  # SELECT, F, L, S
    assert text.count(" -> ") == 4  # three joins plus the select link
    assert "cluster" not in text


def test_cluster_styles_map_to_quantifiers():
    raw = emit_dot(diagram_of(ONLY_LIKED_DRINKS, simplified=False))
    assert raw.count("subgraph cluster_") == 2
    assert raw.count('style="rounded,dashed";') == 2
    assert "peripheries" not in raw
    simplified = emit_dot(diagram_of(ONLY_LIKED_DRINKS))
    assert simplified.count("subgraph cluster_") == 1
    assert simplified.count("peripheries=2;") == 1
    assert simplified.count('style="rounded,dashed";') == 0
    # the exists box is outside any cluster
    assert re.search(r"^  t_L \[", simplified, re.MULTILINE)


def test_cluster_count_matches_boxed_groups():
    for name, sql in VALID_QUERIES.items():
        d = diagram_of(sql)
        text = emit_dot(d)
        boxed = sum(1 for g in d.groups if g.quantifier in
                    (Quantifier.NOT_EXISTS, Quantifier.FOR_ALL))
        assert text.count("subgraph cluster_") == boxed, name


def test_edge_statements_and_labels():
    for name, sql in VALID_QUERIES.items():
        d = diagram_of(sql)
        text = emit_dot(d)
        assert text.count(" -> ") == len(d.edges) + len(d.select_box), name
        labeled = sum(1 for e in d.edges if e.label is not None)
        assert text.count("label=\"") == labeled, name


def test_selection_rows_highlighted():
    text = emit_dot(diagram_of("SELECT T.a FROM Tab T WHERE T.a = 'x<y>'"))
    assert 'BGCOLOR="yellow"' in text
    assert "x&lt;y&gt;" in text  # html-escaped constant


def test_byte_determinism():
    for sql in (SOME_LIKED_DRINK, ONLY_LIKED_DRINKS, UNIQUE_BEER_SET):
        assert emit_dot(diagram_of(sql)) == emit_dot(diagram_of(sql))


def test_dot_is_well_formed():
    for name, sql in VALID_QUERIES.items():
        text = emit_dot(diagram_of(sql))
        assert text.startswith("digraph ") and text.endswith("}\n"), name
        assert text.count("{") == text.count("}"), name
        assert text.count("<TABLE") == text.count("</TABLE>"), name
        for line in text.splitlines():
            if "->" in line:
                assert re.match(r"^  t_\w+:p_\d+ -> t_\w+:p_\d+ \[.*\];$", line), line


def test_emit_json_round_trip():
    for name, sql in VALID_QUERIES.items():
        d = diagram_of(sql)
        assert diagram_from_json(diagram_to_json(d)) == d, name


def test_edges_attach_to_the_first_of_two_rows_of_one_attribute():
    # build_diagram draws one row per (alias, attribute); a hand-made box
    # may hold two, and every edge end and SELECT link takes the first
    rows = (AttributeRow("k"), SelectionRow("k", "=", Constant("number", "1")), AttributeRow("k"))
    d = Diagram(groups=(TableGroup("g0_1", Quantifier.ROOT, 0, None,
                                   (TableBox("A", "TA", rows), TableBox("B", "TB", rows))),),
                edges=(Edge(("A", "k"), ("B", "k"), False, None),),
                select_box=(("B", "k"),))
    text = emit_dot(d)
    assert "  t_A:p_0 -> t_B:p_0 [dir=none];\n" in text
    assert "  t_SELECT:p_0 -> t_B:p_0 [dir=none];\n" in text
    assert ':p_2 ->' not in text and ':p_2 [' not in text
