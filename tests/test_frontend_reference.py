"""The regex scanner and the field-by-field JSON writers, checked against the
earlier character walker (`lexer_reference.py`) and the earlier
`json.dumps(indent=2)` writers (`json_reference.py`)."""

import io
import random

import pytest

from sqldiagram import (
    build_diagram,
    build_logic_tree,
    diagram_from_json,
    diagram_to_json,
    lt_to_json,
    parse,
    resolve_scopes,
    simplify_forall,
)
from sqldiagram.cli import run
from sqldiagram.corpus import random_logic_tree
from sqldiagram.errors import SqlSyntaxError
from sqldiagram.fixtures import OWL_SELECTION_BURIED, VALID_QUERIES
from sqldiagram.logic import lt_to_sql
from sqldiagram.parser import tokenize

from json_reference import reference_diagram_json, reference_lt_json
from lexer_reference import reference_tokenize
from test_isomorphism import wide_tree

# A name, an operator, a number and a string, with one slot after the name,
# two around the number and one inside the string, so that every code point
# is tried as a name's tail, a token's head, a number's tail and string
# content.  The scanner does not look at grammar, so the statement need not
# be a query.  No slot touches a quote, a "-", a "/" or a "*", so no code
# point makes a comment, an escaped quote or an exponent, which only the
# package's scanner reads.
SWEEP_STATEMENT = "SELECT b{c} = {c}1{c} 'x{c}y'"


def _lex(tokenizer, sql):
    """The token stream (tuples of kind, text, line and column), or the error."""
    try:
        return tokenizer(sql)
    except SqlSyntaxError as exc:
        return str(exc), exc.line, exc.column


@pytest.fixture(scope="module")
def generated_queries():
    rng = random.Random(2033)
    return [lt_to_sql(random_logic_tree(rng)) for _ in range(1000)]


def test_tokens_match_the_reference(generated_queries):
    for sql in list(VALID_QUERIES.values()) + generated_queries:
        assert _lex(tokenize, sql) == _lex(reference_tokenize, sql), sql


def test_tokens_match_the_reference_on_every_bmp_code_point():
    statements = (SWEEP_STATEMENT.replace("{c}", chr(code)) for code in range(0x10000))
    differ = [sql for sql in statements if _lex(tokenize, sql) != _lex(reference_tokenize, sql)]
    assert differ == []


def _assert_json_matches(lt, both_forms=True):
    assert lt_to_json(lt) == reference_lt_json(lt)
    for simplified in (True, False) if both_forms else (True,):
        d = build_diagram(lt, simplified=simplified, allow_invalid=True)
        text = diagram_to_json(d)
        assert text == reference_diagram_json(d)
        assert diagram_to_json(diagram_from_json(text)) == text


def test_json_matches_the_reference(generated_queries):
    for sql in VALID_QUERIES.values():
        _assert_json_matches(build_logic_tree(resolve_scopes(parse(sql))))
    for sql in generated_queries:
        _assert_json_matches(build_logic_tree(resolve_scopes(parse(sql))), both_forms=False)


def test_json_matches_the_reference_on_a_wide_diagram():
    lt = wide_tree(random.Random(11), 300)
    assert len(build_diagram(lt).groups) == 901
    _assert_json_matches(lt)


def test_json_escapes_match_the_reference():
    sql = ("SELECT Bär.näme FROM Tábla Bär, R WHERE Bär.näme = 'say \"hi\" \\ \x01\t€ 字' "
           "AND Bär.x < 'O''Brien' AND R.a = Bär.x AND R.b <> '' AND R.c = -1e5")
    lt = build_logic_tree(resolve_scopes(parse(sql)))
    text = diagram_to_json(build_diagram(lt))
    for piece in ('\\"hi\\"', "\\\\", "\\u0001", "\\t", "€ 字", "O'Brien", "Bär", "-1e5"):
        assert piece in text, piece
    _assert_json_matches(lt)


def test_cli_json_outputs_match_the_reference(monkeypatch, capsys):
    for sql in list(VALID_QUERIES.values()) + [OWL_SELECTION_BURIED]:
        lt = build_logic_tree(resolve_scopes(parse(sql)))
        monkeypatch.setattr("sys.stdin", io.StringIO(sql))
        assert run(["lt"]) == 0
        assert capsys.readouterr().out == reference_lt_json(simplify_forall(lt))
        monkeypatch.setattr("sys.stdin", io.StringIO(sql))
        if run(["viz", "--format", "json"]) == 0:
            assert capsys.readouterr().out == reference_diagram_json(build_diagram(lt))
        else:
            assert capsys.readouterr().out == ""
