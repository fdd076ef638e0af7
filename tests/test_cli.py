import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sqldiagram.cli import run
from sqldiagram.corpus import random_logic_tree
from sqldiagram.fixtures import (
    ONLY_LIKED_DRINKS,
    OWL_SELECTION_BURIED,
    SAILORS_ONLY_RED,
    SOME_LIKED_DRINK,
    UNIQUE_BEER_SET,
    VALID_QUERIES,
)
from sqldiagram.logic import lt_to_sql
from sqldiagram.parser import MAX_NESTING_DEPTH
from sqldiagram.recovery import DepthAssignment, recover_depths

COMMANDS = ("viz", "lt", "trc", "check", "recover", "roundtrip", "metrics")


@pytest.fixture
def sql_file(tmp_path):
    def write(sql, name="query.sql"):
        path = tmp_path / name
        path.write_text(sql, encoding="utf-8")
        return str(path)
    return write


def test_viz_dot_to_stdout(sql_file, capsys):
    assert run(["viz", sql_file(SOME_LIKED_DRINK)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph ")
    assert "t_SELECT" in out


def test_viz_no_simplify_emits_dashed_clusters(sql_file, capsys):
    assert run(["viz", "--no-simplify", sql_file(ONLY_LIKED_DRINKS)]) == 0
    out = capsys.readouterr().out
    assert out.count('style="rounded,dashed";') == 2


def test_viz_json_format(sql_file, capsys):
    assert run(["viz", "--format", "json", sql_file(UNIQUE_BEER_SET)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["groups"]) == 6


def test_viz_output_file(sql_file, tmp_path, capsys):
    target = tmp_path / "out.dot"
    assert run(["viz", sql_file(SOME_LIKED_DRINK), "-o", str(target)]) == 0
    assert target.read_text().startswith("digraph ")
    assert capsys.readouterr().out == ""


def test_viz_missing_renderer_is_only_a_warning(sql_file, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SQLDIAGRAM_RENDERER", raising=False)
    target = tmp_path / "out.dot"
    assert run(["viz", sql_file(SOME_LIKED_DRINK), "-o", str(target), "--render", "svg"]) == 0
    assert "warning: no renderer" in capsys.readouterr().err


def test_viz_render_invokes_external_renderer(sql_file, tmp_path, monkeypatch):
    stub = tmp_path / "fake-dot"
    stub.write_text("#!/bin/sh\necho \"$@\" > \"$4\"\n")
    stub.chmod(0o755)
    monkeypatch.setenv("SQLDIAGRAM_RENDERER", str(stub))
    target = tmp_path / "out.dot"
    assert run(["viz", sql_file(SOME_LIKED_DRINK), "-o", str(target), "--render", "svg"]) == 0
    rendered = tmp_path / "out.svg"
    assert rendered.exists()
    assert f"-Tsvg {target} -o {rendered}" in rendered.read_text()


def test_viz_json_render_warns_and_writes_only_the_json(sql_file, tmp_path, capsys,
                                                        monkeypatch):
    stub = tmp_path / "fake-dot"
    stub.write_text("#!/bin/sh\necho \"$@\" > \"$4\"\n")
    stub.chmod(0o755)
    monkeypatch.setenv("SQLDIAGRAM_RENDERER", str(stub))
    source = sql_file(SOME_LIKED_DRINK)
    assert run(["viz", "--format", "json", source]) == 0
    expected = capsys.readouterr().out
    target = tmp_path / "out.json"
    assert run(["viz", "--format", "json", source, "-o", str(target), "--render", "svg"]) == 0
    assert capsys.readouterr() == (
        "", "warning: --render applies only to DOT output; skipping render\n")
    assert not (tmp_path / "out.svg").exists()
    assert target.read_text(encoding="utf-8") == expected


def test_viz_render_without_output_warns_and_prints_the_dot(sql_file, tmp_path, capsys,
                                                             monkeypatch):
    stub = tmp_path / "fake-dot"
    stub.write_text("#!/bin/sh\necho \"$@\" > \"$4\"\n")
    stub.chmod(0o755)
    monkeypatch.setenv("SQLDIAGRAM_RENDERER", str(stub))
    source = sql_file(SOME_LIKED_DRINK)
    assert run(["viz", source]) == 0
    expected = capsys.readouterr().out
    assert run(["viz", source, "--render", "svg"]) == 0
    assert capsys.readouterr() == (
        expected, "warning: --render needs --output to name the rendered file\n")
    assert list(tmp_path.glob("*.svg")) == []


def test_viz_failing_renderer_prints_one_line(sql_file, tmp_path, capsys, monkeypatch):
    stub = tmp_path / "failing-dot"
    stub.write_text("#!/bin/sh\nexit 3\n")
    stub.chmod(0o755)
    monkeypatch.setenv("SQLDIAGRAM_RENDERER", str(stub))
    target = tmp_path / "out.dot"
    assert run(["viz", sql_file(SOME_LIKED_DRINK), "-o", str(target), "--render", "svg"]) == 2
    assert capsys.readouterr() == ("", f"error: renderer {stub} exited with status 3\n")
    assert target.read_text().startswith("digraph ")


def test_lt_json(sql_file, capsys):
    assert run(["lt", sql_file(ONLY_LIKED_DRINKS)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quantifier"] == "ROOT"
    assert doc["children"][0]["quantifier"] == "FOR_ALL"
    assert doc["select_list"] == ["F.person"]


def test_trc_text(sql_file, capsys):
    assert run(["trc", "--no-simplify", sql_file(ONLY_LIKED_DRINKS)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("{Q | ")
    assert "¬∃" in out


def test_check_clean_query(sql_file, capsys):
    assert run(["check", sql_file(UNIQUE_BEER_SET)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_check_degenerate_query_exits_1(sql_file, capsys):
    assert run(["check", sql_file(OWL_SELECTION_BURIED)]) == 1
    out = capsys.readouterr().out
    assert "LocalAttributes" in out
    assert "F.bar = 'Owl'" in out


def test_viz_degenerate_query_exits_1(sql_file, capsys):
    assert run(["viz", sql_file(OWL_SELECTION_BURIED)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sql, code, stream, line", [
    (UNIQUE_BEER_SET, 0, "stdout", "ok: "),
    (OWL_SELECTION_BURIED, 1, "stdout", "violation: LocalAttributes "),
    ("SELECT", 2, "stderr", "error: "),
], ids=["valid", "degenerate", "parse error"])
def test_module_entry_point_exits_with_the_command_code(sql, code, stream, line):
    # `python -m sqldiagram` runs __main__ and main(), which hand run's code
    # to sys.exit; the in-process tests call run itself
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-m", "sqldiagram", "check"], input=sql,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == code
    (printed,) = getattr(done, stream).splitlines()
    assert printed.startswith(line)
    assert getattr(done, "stderr" if stream == "stdout" else "stdout") == ""


def test_parse_error_exits_2(sql_file, capsys):
    assert run(["viz", sql_file("SELECT FROM WHERE")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unsupported_feature_exits_2(sql_file, capsys):
    assert run(["check", sql_file("SELECT T.a FROM T WHERE T.a = 1 OR T.a = 2")]) == 2
    assert "OR" in capsys.readouterr().err


def test_duplicate_alias_is_a_positioned_error(sql_file, capsys):
    assert run(["lt", sql_file("SELECT T.a FROM T, S T")]) == 2
    assert capsys.readouterr().err == (
        "error: alias 'T' is declared twice in the same FROM clause at line 1:22\n")
    assert run(["lt", sql_file("SELECT T.a FROM T, T")]) == 2
    assert capsys.readouterr().err == (
        "error: alias 'T' is declared twice in the same FROM clause at line 1:20\n")


def test_missing_file_exits_2(capsys):
    assert run(["viz", "/nonexistent/query.sql"]) == 2


def test_recover_from_diagram_json(sql_file, tmp_path, capsys):
    diagram_path = tmp_path / "diagram.json"
    assert run(["viz", "--format", "json", sql_file(UNIQUE_BEER_SET),
                "-o", str(diagram_path)]) == 0
    assert run(["recover", str(diagram_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["depths"] == {"g0_1": 0, "g1_1": 1, "g2_1": 2, "g3_1": 3,
                             "g2_2": 2, "g3_2": 3}
    assert doc["parents"]["g3_2"] == "g2_2"


def test_recover_malformed_json_exits_2(sql_file, capsys):
    assert run(["recover", sql_file("{not json", name="bad.json")]) == 2


@pytest.mark.parametrize("mutate, reason", [
    (lambda doc: doc.update(groups=5), "groups: expected a list"),
    ([], "the document: expected an object"),
    (lambda doc: doc.update(edges=None), "edges: expected a list"),
    (lambda doc: doc.pop("select_box"), "select_box: missing"),
    (lambda doc: doc["groups"][1].update(quantifier="exists"),
     'groups[1].quantifier: expected "ROOT", "EXISTS", "NOT_EXISTS" or "FOR_ALL"'),
    (lambda doc: doc["groups"][1].update(quantifier=["x"]),
     'groups[1].quantifier: expected "ROOT", "EXISTS", "NOT_EXISTS" or "FOR_ALL"'),
    # the group's id is read before its tables
    (lambda doc: (doc["groups"][1].pop("id"), doc["groups"][1]["tables"][0].pop("alias")),
     "groups[1].id: missing"),
    (lambda doc: doc["edges"][0].update({"from": ["X"]}),
     "edges[0].from: expected a list of two strings"),
    # the group's quantifier is read before its tables
    (lambda doc: (doc["groups"][1].pop("quantifier"), doc["groups"][1].update(tables=3)),
     "groups[1].quantifier: missing"),
    (lambda doc: doc["edges"][0].update({"from": []}),
     "edges[0].from: expected a list of two strings"),
    (lambda doc: doc["edges"][7].update(to=["x"]), "edges[7].to: expected a list of two strings"),
    # each of these once loaded and ended in exit 0 or 1 with a verdict on
    # another fault: a "yes" edge recovered, a depth "x" or "0" was compared
    # with the recovered depth, and a numeric alias named no table box
    (lambda doc: doc["edges"][0].update(directed="yes"),
     "edges[0].directed: expected true or false"),
    (lambda doc: doc["edges"][1].update(directed=None),
     "edges[1].directed: expected true or false"),
    (lambda doc: doc["groups"][1].update(depth="x"), "groups[1].depth: expected an integer"),
    (lambda doc: doc["groups"][0].update(depth="0"), "groups[0].depth: expected an integer"),
    (lambda doc: doc["groups"][1].update(depth=True), "groups[1].depth: expected an integer"),
    (lambda doc: doc["groups"][2].update(depth=2.0), "groups[2].depth: expected an integer"),
    (lambda doc: doc["groups"][0]["tables"][0].update(alias=7),
     "groups[0].tables[0].alias: expected a string"),
], ids=["groups_int", "top_level_list", "edges_null", "select_box_missing",
        "quantifier_unknown", "quantifier_list", "id_and_alias_missing",
        "edge_from_short", "quantifier_missing_tables_int", "edge_from_empty",
        "select_link_short", "directed_string", "directed_null", "depth_x", "depth_as_string",
        "depth_true", "depth_float", "alias_number"])
def test_recover_malformed_diagram_prints_one_line(sql_file, tmp_path, capsys, mutate, reason):
    diagram_path = tmp_path / "diagram.json"
    run(["viz", "--format", "json", sql_file(UNIQUE_BEER_SET), "-o", str(diagram_path)])
    doc = json.loads(diagram_path.read_text())
    if callable(mutate):
        mutate(doc)
    else:  # a document in place of the diagram's
        doc = mutate
    diagram_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["recover", str(diagram_path)]) == 2
    assert capsys.readouterr() == ("", f"error: malformed input ({reason})\n")


# Each of these once loaded: recover exited 0 with an assignment, exited 1
# with a verdict on another fault, or exited 2 with a message naming no path.
@pytest.mark.parametrize("mutate, reason", [
    (lambda doc: doc["groups"][1].update(id=1), "groups[1].id: expected a string"),
    (lambda doc: doc["groups"][1].update(parent=0), "groups[1].parent: expected a string or null"),
    (lambda doc: doc["groups"][0]["tables"][0].update(table_name=5),
     "groups[0].tables[0].table_name: expected a string"),
    (lambda doc: doc["groups"][1]["tables"][0]["rows"][1].update(attribute=3),
     "groups[1].tables[0].rows[1].attribute: expected a string"),
    (lambda doc: doc["groups"][2]["tables"][0]["rows"][1].update(op="~"),
     "groups[2].tables[0].rows[1].op: expected a comparison operator"),
    (lambda doc: doc["groups"][2]["tables"][0]["rows"][1]["constant"].update(kind="date"),
     'groups[2].tables[0].rows[1].constant.kind: expected "string" or "number"'),
    (lambda doc: doc["groups"][2]["tables"][0]["rows"][1]["constant"].update(literal=7),
     "groups[2].tables[0].rows[1].constant.literal: expected a string"),
    (lambda doc: doc["edges"][0].update(label=1),
     "edges[0].label: expected null or a comparison operator"),
    (lambda doc: doc["edges"][1].update(label="~"),
     "edges[1].label: expected null or a comparison operator"),
    (lambda doc: doc["edges"][0].update(to="BX"), "edges[0].to: expected a list of two strings"),
    (lambda doc: doc["edges"][1].update({"from": ["S", "sid", "x"]}),
     "edges[1].from: expected a list of two strings"),
    (lambda doc: doc["edges"][1].update({"from": ["S", 4]}),
     "edges[1].from: expected a list of two strings"),
    (lambda doc: doc["edges"][2].update(to=("S", None)),
     "edges[2].to: expected a list of two strings"),
    # a missing key or an element that is not an object is named by its path too
    (lambda doc: doc["groups"][1]["tables"][0].pop("table_name"),
     "groups[1].tables[0].table_name: missing"),
    (lambda doc: doc["groups"][2]["tables"][0]["rows"][0].pop("attribute"),
     "groups[2].tables[0].rows[0].attribute: missing"),
    (lambda doc: doc["groups"][2]["tables"][0]["rows"][1]["constant"].pop("literal"),
     "groups[2].tables[0].rows[1].constant.literal: missing"),
    (lambda doc: doc["edges"][1].pop("label"), "edges[1].label: missing"),
    (lambda doc: doc["groups"].__setitem__(2, 5), "groups[2]: expected an object"),
    (lambda doc: doc["groups"][0]["tables"][0]["rows"].__setitem__(1, ["sid"]),
     "groups[0].tables[0].rows[1]: expected an object"),
    (lambda doc: doc["edges"].__setitem__(0, None), "edges[0]: expected an object"),
    (lambda doc: doc["groups"][1].update(tables=3), "groups[1].tables: expected a list"),
], ids=["group_id_int", "group_parent_int", "table_name_int", "attribute_int", "op_tilde",
        "constant_kind_date", "constant_literal_int", "label_int", "label_tilde", "to_string",
        "from_three", "from_attribute_int", "select_to_attribute_null", "box_key_missing",
        "row_key_missing", "constant_key_missing", "edge_key_missing", "group_int",
        "row_list", "edge_null", "tables_int"])
def test_recover_names_the_path_of_a_field_of_the_wrong_shape(
        sql_file, tmp_path, capsys, mutate, reason):
    diagram_path = tmp_path / "diagram.json"
    run(["viz", "--format", "json", sql_file(VALID_QUERIES["sailors_no_red"]),
         "-o", str(diagram_path)])
    doc = json.loads(diagram_path.read_text())
    mutate(doc)
    diagram_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["recover", str(diagram_path)]) == 2
    assert capsys.readouterr() == ("", f"error: malformed input ({reason})\n")


def test_recover_deeply_nested_json_prints_one_line(sql_file, capsys):
    assert run(["recover", sql_file("[" * 100000, name="deep.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: malformed input (maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_recover_does_not_print_a_fault_in_recovery_as_malformed_input(
        sql_file, tmp_path, monkeypatch):
    diagram_path = tmp_path / "diagram.json"
    run(["viz", "--format", "json", sql_file(UNIQUE_BEER_SET), "-o", str(diagram_path)])

    def faulty_recover_depths(graph):
        raise KeyError("fault")

    monkeypatch.setattr("sqldiagram.cli.recover_depths", faulty_recover_depths)
    with pytest.raises(KeyError, match="fault"):
        run(["recover", str(diagram_path)])


def test_roundtrip_reports_a_group_recovered_at_another_depth(sql_file, monkeypatch, capsys):
    # No SQL input reaches this line: recovery is exact on every diagram the
    # front end builds, so a stub moves one group a level down.
    def off_by_one(graph):
        recovered = recover_depths(graph)
        return DepthAssignment({**recovered.depths, "g3_2": 4}, recovered.parents)

    monkeypatch.setattr("sqldiagram.cli.recover_depths", off_by_one)
    assert run(["roundtrip", sql_file(UNIQUE_BEER_SET)]) == 1
    assert capsys.readouterr() == (
        "", "round trip failed: group g3_2 recovered at depth 4, expected 3\n")


@pytest.mark.parametrize("survivors", [0, 2])
def test_roundtrip_reports_an_oracle_without_one_survivor(
        sql_file, monkeypatch, capsys, survivors):
    # The oracle finds exactly one structure for every diagram the front end
    # builds, so a stub returns none or two.
    monkeypatch.setattr("sqldiagram.cli.brute_force_depths",
                        lambda graph: [DepthAssignment()] * survivors)
    assert run(["roundtrip", sql_file(UNIQUE_BEER_SET)]) == 1
    assert capsys.readouterr() == (
        "", f"round trip failed: {survivors} consistent structures exist\n")


def test_roundtrip_reports_an_oracle_whose_one_survivor_is_another_structure(
        sql_file, monkeypatch, capsys):
    # The oracle's one structure is the recovered one for every diagram the
    # front end builds, so a stub returns an empty assignment.
    monkeypatch.setattr("sqldiagram.cli.brute_force_depths", lambda graph: [DepthAssignment()])
    assert run(["roundtrip", sql_file(UNIQUE_BEER_SET)]) == 1
    assert capsys.readouterr() == (
        "", "round trip failed: the one consistent structure is not the recovered one\n")


def test_recover_invalid_diagram_exits_1(sql_file, tmp_path, capsys):
    diagram_path = tmp_path / "diagram.json"
    run(["viz", "--format", "json", sql_file(UNIQUE_BEER_SET), "-o", str(diagram_path)])
    doc = json.loads(diagram_path.read_text())
    doc["edges"] = [e for e in doc["edges"] if e["from"][0] != "L3"]  # cut a mandatory join
    diagram_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["recover", str(diagram_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_recover_repeated_group_id_exits_1(sql_file, tmp_path, capsys):
    diagram_path = tmp_path / "diagram.json"
    run(["viz", "--format", "json", sql_file(UNIQUE_BEER_SET), "-o", str(diagram_path)])
    doc = json.loads(diagram_path.read_text())
    assert [g["id"] for g in doc["groups"]][2::2] == ["g2_1", "g2_2"]
    doc["groups"][4]["id"] = "g2_1"  # the two depth-2 groups share one id
    diagram_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["recover", str(diagram_path)]) == 1
    assert capsys.readouterr().err == "error: group id 'g2_1' is repeated\n"


@pytest.mark.parametrize("into", [2, 4])  # the box's own group, then another one
def test_recover_repeated_table_alias_exits_1(sql_file, tmp_path, capsys, into):
    diagram_path = tmp_path / "diagram.json"
    run(["viz", "--format", "json", sql_file(UNIQUE_BEER_SET), "-o", str(diagram_path)])
    doc = json.loads(diagram_path.read_text())
    box = doc["groups"][2]["tables"][0]
    doc["groups"][into]["tables"].append(box)  # one alias drawn twice
    diagram_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["recover", str(diagram_path)]) == 1
    assert capsys.readouterr().err == f"error: table alias {box['alias']!r} is repeated\n"


@pytest.mark.parametrize("group, fields, error", [
    (2, {"depth": 7, "parent": None}, "group g2_1 recovered at depth 2, expected 7"),
    (2, {"parent": "g0_1"}, "group g2_1 recovered under g1_1"),
    (0, {"parent": "g1_1"}, "group g0_1 recovered as the root"),
], ids=["depth", "parent", "root_parent"])
def test_recover_rejects_a_declared_structure_it_does_not_recover(
        sql_file, tmp_path, capsys, group, fields, error):
    diagram_path = tmp_path / "diagram.json"
    run(["viz", "--format", "json", sql_file(SAILORS_ONLY_RED), "-o", str(diagram_path)])
    doc = json.loads(diagram_path.read_text())
    doc["groups"][group].update(fields)
    diagram_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["recover", str(diagram_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_roundtrip_fixture_queries(sql_file, capsys):
    for name, sql in VALID_QUERIES.items():
        assert run(["roundtrip", sql_file(sql, name=f"{name}.sql")]) == 0, name
        out = capsys.readouterr().out
        assert out.startswith("round trip ok:"), name


@pytest.mark.parametrize("command", COMMANDS)
def test_no_simplify_flag(sql_file, capsys, command):
    # roundtrip: recovery reads nothing that the forall rewrite changes
    code = run([command, "--no-simplify", sql_file(SOME_LIKED_DRINK)])
    if command in ("viz", "lt", "trc", "metrics"):
        assert code == 0
        assert capsys.readouterr().err == ""
    else:
        assert code == 2
        assert "unrecognized arguments: --no-simplify" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("option", [["--format", "json"], ["--render", "svg"]],
                         ids=["format", "render"])
def test_format_and_render_belong_to_viz(sql_file, tmp_path, capsys, monkeypatch,
                                         command, option):
    monkeypatch.delenv("SQLDIAGRAM_RENDERER", raising=False)
    code = run([command, sql_file(SOME_LIKED_DRINK), *option, "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if command == "viz":
        assert code == 0
        assert "unrecognized" not in err
    else:
        assert code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in err


def test_help_lists_the_commands_in_order(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{viz,lt,trc,check,recover,roundtrip,metrics}" in out
    listed = [line.split(None, 1) for line in out.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert listed == [
        ["viz", "SQL to diagram (DOT or JSON)"],
        ["lt", "SQL to logic tree JSON"],
        ["trc", "SQL to tuple calculus text"],
        ["check", "validate a query"],
        ["recover", "diagram JSON to depth assignment JSON"],
        ["roundtrip", "build a diagram, recover it, compare"],
        ["metrics", "element and word counts"],
    ]


def test_roundtrip_generated_queries(sql_file, capsys):
    rng = random.Random(77)
    for i in range(25):
        sql = lt_to_sql(random_logic_tree(rng))
        assert run(["roundtrip", sql_file(sql, name=f"gen{i}.sql")]) == 0, sql
        capsys.readouterr()


def test_metrics(sql_file, capsys):
    assert run(["metrics", sql_file(SOME_LIKED_DRINK)]) == 0
    out = capsys.readouterr().out
    assert out == "elements: 15\nwords: 21\n"


def test_stdin_input(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("SELECT T.a FROM Tab T"))
    assert run(["trc"]) == 0
    assert capsys.readouterr().out == "{Q | ∃T ∈ Tab [T.a = Q.a]}\n"


def test_byte_stability_across_runs(sql_file, capsys):
    commands = [
        ["viz", sql_file(UNIQUE_BEER_SET, name="u.sql")],
        ["viz", "--format", "json", sql_file(UNIQUE_BEER_SET, name="u.sql")],
        ["lt", sql_file(ONLY_LIKED_DRINKS, name="o.sql")],
        ["trc", sql_file(ONLY_LIKED_DRINKS, name="o.sql")],
        ["metrics", sql_file(SOME_LIKED_DRINK, name="s.sql")],
    ]
    for argv in commands:
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first, argv


def test_usage_error_exits_2(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2


def _wide_sql(k):
    """A root with k NOT EXISTS children, each with two EXISTS children of its
    own: 3k + 1 groups."""
    children = []
    for i in range(k):
        grandchildren = " AND ".join(
            f"EXISTS (SELECT * FROM R G{i}x{j} WHERE G{i}x{j}.b = C{i}.b)" for j in range(2))
        children.append(f"NOT EXISTS (SELECT * FROM R C{i} WHERE C{i}.a = W.a AND {grandchildren})")
    return "SELECT W.a FROM R W WHERE " + " AND ".join(children)


def test_roundtrip_runs_the_oracle_above_twelve_groups(sql_file, capsys):
    assert run(["roundtrip", sql_file(_wide_sql(4))]) == 0
    assert capsys.readouterr().out == (
        "round trip ok: 13 groups recovered exactly, unique by exhaustive search\n")


def test_no_command_takes_max_depth(sql_file, capsys):
    path = sql_file(SOME_LIKED_DRINK)
    for command in COMMANDS:
        assert run([command, "--max-depth", "3", path]) == 2, command
        assert "unrecognized arguments: --max-depth" in capsys.readouterr().err, command


def test_depth_past_the_bound_fails_check_and_warns_in_viz(sql_file, tmp_path, capsys):
    path = sql_file(
        "SELECT A.x FROM TA A WHERE NOT EXISTS (SELECT * FROM TB B WHERE B.x = A.x"
        " AND NOT EXISTS (SELECT * FROM TC C WHERE C.x = B.x"
        " AND NOT EXISTS (SELECT * FROM TD D WHERE D.x = C.x"
        " AND NOT EXISTS (SELECT * FROM TE E WHERE E.x = D.x))))")
    assert run(["check", path]) == 1
    assert "violation: DepthExceeded at node 0/0/0/0" in capsys.readouterr().out
    warning = "warning: nesting depth exceeds 3; structure recovery is not guaranteed\n"
    error = "error: recovery: groups are nested deeper than 3\n"
    assert run(["viz", path]) == 0
    assert capsys.readouterr().err == warning
    assert run(["roundtrip", path]) == 1
    assert capsys.readouterr().err == warning + error
    diagram_path = str(tmp_path / "diagram.json")
    assert run(["viz", "--format", "json", path, "-o", diagram_path]) == 0
    capsys.readouterr()
    assert run(["recover", diagram_path]) == 1
    assert capsys.readouterr().err == error


def _nested_sql(levels):
    """A chain of `levels` nested NOT EXISTS subqueries, each joining its
    parent, with every SELECT but the first at column 17 of its own line."""
    lines = ["SELECT T0.a FROM R T0 WHERE T0.a = 1"]
    for i in range(1, levels + 1):
        lines.append(f"AND NOT EXISTS (SELECT * FROM R T{i} WHERE T{i}.a = T{i - 1}.a")
    return "\n".join(lines) + ")" * levels


def test_nesting_up_to_the_limit_runs_every_command(sql_file, tmp_path, capsys):
    path = sql_file(_nested_sql(MAX_NESTING_DEPTH))
    diagram_path = str(tmp_path / "diagram.json")
    expected = [
        (["viz", path], 0),
        (["viz", "--no-simplify", path], 0),
        (["viz", "--format", "json", path, "-o", diagram_path], 0),
        (["recover", diagram_path], 1),  # recovery covers depths up to 3 only
        (["lt", path], 0),
        (["lt", "--no-simplify", path], 0),
        (["trc", path], 0),
        (["check", path], 1),  # depth exceeded
        (["metrics", path], 0),
        (["roundtrip", path], 1),
    ]
    for argv, code in expected:
        assert run(argv) == code, argv
        assert "Traceback" not in capsys.readouterr().err


def test_nesting_past_the_limit_is_a_positioned_error(sql_file, capsys):
    path = sql_file(_nested_sql(MAX_NESTING_DEPTH + 1))
    message = (f"error: unsupported feature subquery nesting deeper than "
               f"{MAX_NESTING_DEPTH} levels at line {MAX_NESTING_DEPTH + 2}:17\n")
    for command in ("viz", "lt", "trc", "check", "metrics", "roundtrip"):
        assert run([command, path]) == 2, command
        assert capsys.readouterr().err == message, command


@pytest.mark.parametrize("select, got", [("S.b, S.c", "2"), ("*", "SELECT *")],
                         ids=["two_columns", "star"])
def test_malformed_subquery_names_the_column_before_in(sql_file, capsys, select, got):
    path = sql_file(f"SELECT T.a FROM T WHERE T.a IN (SELECT {select} FROM S)")
    assert run(["lt", path]) == 2
    assert capsys.readouterr() == (
        "", f"error: IN/ANY/ALL subquery must select exactly one column, got {got} "
            "at line 1:25\n")
