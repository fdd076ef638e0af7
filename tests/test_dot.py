import io
import pathlib
import re

from sqldiagram import diagram_from_json, diagram_isomorphic, diagram_to_json, emit_dot
from sqldiagram.cli import run
from sqldiagram.diagram import AttributeRow, Diagram, Edge, SelectionRow, TableBox, TableGroup
from sqldiagram.fixtures import (
    ONLY_LIKED_DRINKS,
    SOME_LIKED_DRINK,
    UNIQUE_BEER_SET,
    VALID_QUERIES,
)
from sqldiagram.logic import Quantifier
from sqldiagram.sqlast import Constant

from evaluate_reference import evaluate
from graphs import diagram_of, lower

GOLDEN = pathlib.Path(__file__).parent / "golden"


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


# The smallest pair of queries of different meaning found to draw one
# picture: each draws a bare A linked to SELECT and a chain bare -> dashed
# -> bare.
ONE_PICTURE = (
    "SELECT A.x FROM T A, T B WHERE EXISTS (SELECT * FROM T C WHERE NOT EXISTS"
    " (SELECT * FROM T D WHERE B.x = D.x AND C.x = D.x))",
    "SELECT A.x FROM T A, T B WHERE NOT EXISTS (SELECT * FROM T C WHERE B.x = C.x"
    " AND EXISTS (SELECT * FROM T D WHERE C.x = D.x))",
)


def _picture(d, rename):
    """What the rendered DOT of `d` shows, its aliases renamed by `rename`:
    each box's header and rows, the boxes of each NOT EXISTS or FOR ALL
    cluster with its style, each edge's ends, direction and label, and the
    SELECT links.  ROOT and EXISTS groups draw no cluster, and no depth,
    parent or group id shows."""
    def end(column):
        return rename[column[0]], column[1]

    return ({(rename[b.alias], b.table_name, b.rows) for g in d.groups for b in g.tables},
            {(g.quantifier, frozenset(rename[b.alias] for b in g.tables))
             for g in d.groups if g.boxed},
            {(end(e.src), end(e.dst), e.directed, e.label) for e in d.edges},
            tuple(map(end, d.select_box)))


def test_two_queries_of_different_meaning_draw_one_picture(monkeypatch, capsys):
    """ROADMAP.md item 17: the rendered picture does not always determine
    the query.  Both queries pass `check` and round-trip, and on T = {1, 2}
    the first returns both rows and the second none; their diagrams are not
    isomorphic, yet under the alias bijection A->A, B->D, C->B, D->C their
    pictures agree.  Which output should tell them apart is a contract
    decision, so this pins the gap as it stands."""
    for sql in ONE_PICTURE:
        monkeypatch.setattr("sys.stdin", io.StringIO(sql))
        assert run(["check"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(sql))
        assert run(["roundtrip"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("round trip ok")
    db = {"T": [{"x": 1}, {"x": 2}]}
    assert [evaluate(lower(sql), db) for sql in ONE_PICTURE] == [{(1,), (2,)}, set()]
    first, second = map(diagram_of, ONE_PICTURE)
    assert not diagram_isomorphic(first, second)
    assert (_picture(first, {"A": "A", "B": "D", "C": "B", "D": "C"})
            == _picture(second, {alias: alias for alias in "ABCD"}))
