"""The scanner and the field-by-field JSON writers, checked against the
earlier character walker and named-group scanner (`lexer_reference.py`) and
the earlier `json.dumps(indent=2)` writers (`json_reference.py`)."""

import io
import random

import pytest

from sqldiagram import (build_diagram, diagram_from_json, diagram_to_json, lt_to_json,
                        simplify_forall)
from sqldiagram.cli import run
from sqldiagram.corpus import random_logic_tree
from sqldiagram.errors import SqlSyntaxError
from sqldiagram.fixtures import OWL_SELECTION_BURIED, VALID_QUERIES
from sqldiagram.logic import lt_to_sql
from sqldiagram.parser import tokenize

from graphs import lower, wide_tree
from json_reference import reference_diagram_json, reference_lt_json
from lexer_reference import reference_tokenize, scanner_tokenize

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


# Blanks and comments spliced between tokens: the walker knows no comments,
# so only the named-group scanner checks these.
FILLERS = (" ", "\t", "\r", "\n", "\r\n  ", "-- note\n", "--\n", "/**/", "/* a\n\n b */",
           "/* -- ' */")


def _splice(rng, sql):
    """`sql` with zero to two fillers at each token boundary, both ends included."""
    starts = [token.column - 1 for token in scanner_tokenize(sql)]  # one line: column is offset
    pieces, previous = [], 0
    for start in starts:
        pieces.append(sql[previous:start])
        pieces.extend(rng.choice(FILLERS) for _ in range(rng.choice((0, 0, 1, 2))))
        previous = start
    return "".join(pieces) + sql[previous:]


def test_tokens_match_the_scanner_reference_with_blanks_and_comments(generated_queries):
    rng = random.Random(2034)
    for sql in generated_queries:
        assert "\n" not in sql
        spliced = _splice(rng, sql)
        assert _lex(tokenize, spliced) == _lex(scanner_tokenize, spliced), spliced


def test_signed_numbers_and_exponents_match_the_scanner_reference():
    rng = random.Random(2035)
    parts = (("", "-", "+", "- ", "--", "-- x\n-"), ("0", "7", "12", "١٢", "٣"),
             ("", ".", ".5", ".25", "..5", ". 5"), ("", "e", "E", "e5", "E+3", "e-07", "e+", "ee1"))
    for _ in range(3000):
        numbers = ["".join(rng.choice(choices) for choices in parts) for _ in range(2)]
        sql = "SELECT T.a FROM T WHERE T.a = {} AND {}<T.b".format(*numbers)
        assert _lex(tokenize, sql) == _lex(scanner_tokenize, sql), sql


ERROR_FORMS = ("'abc", "'ab\ncd'", "'O''Brien", "/* open", "/*/", "/* a */ /*", "#", "@", '"x"',
               "`", "\f", "\u00a0", "!", "²", "²x", "1²", "½", "Ⅻ")


@pytest.mark.parametrize("error", ERROR_FORMS)
def test_errors_match_the_scanner_reference(error):
    prefixes = ("", "SELECT ", "SELECT T.a\nFROM T /* one\n two */ WHERE ", "\n\n  -- c\n\tT.a=",
                "SELECT 'x''y' ,1e5 ")
    for prefix in prefixes:
        for sql in (prefix + error, prefix + error + " FROM T\n"):
            found = _lex(tokenize, sql)
            assert isinstance(found[0], str), sql  # an error, not a token list
            assert found == _lex(scanner_tokenize, sql), sql


def _assert_json_matches(lt, both_forms=True):
    assert lt_to_json(lt) == reference_lt_json(lt)
    for simplified in (True, False) if both_forms else (True,):
        d = build_diagram(lt, simplified=simplified, allow_invalid=True)
        text = diagram_to_json(d)
        assert text == reference_diagram_json(d)
        assert diagram_to_json(diagram_from_json(text)) == text


def test_json_matches_the_reference(generated_queries):
    for sql in VALID_QUERIES.values():
        _assert_json_matches(lower(sql))
    for sql in generated_queries:
        _assert_json_matches(lower(sql), both_forms=False)


def test_json_matches_the_reference_on_a_wide_diagram():
    lt = wide_tree(random.Random(11), 300)
    assert len(build_diagram(lt).groups) == 901
    _assert_json_matches(lt)


def test_json_escapes_match_the_reference():
    sql = ("SELECT Bär.näme FROM Tábla Bär, R WHERE Bär.näme = 'say \"hi\" \\ \x01\t€ 字' "
           "AND Bär.x < 'O''Brien' AND R.a = Bär.x AND R.b <> '' AND R.c = -1e5")
    lt = lower(sql)
    text = diagram_to_json(build_diagram(lt))
    for piece in ('\\"hi\\"', "\\\\", "\\u0001", "\\t", "€ 字", "O'Brien", "Bär", "-1e5"):
        assert piece in text, piece
    _assert_json_matches(lt)


def test_cli_json_outputs_match_the_reference(monkeypatch, capsys):
    for sql in list(VALID_QUERIES.values()) + [OWL_SELECTION_BURIED]:
        lt = lower(sql)
        monkeypatch.setattr("sys.stdin", io.StringIO(sql))
        assert run(["lt"]) == 0
        assert capsys.readouterr().out == reference_lt_json(simplify_forall(lt))
        monkeypatch.setattr("sys.stdin", io.StringIO(sql))
        if run(["viz", "--format", "json"]) == 0:
            assert capsys.readouterr().out == reference_diagram_json(build_diagram(lt))
        else:
            assert capsys.readouterr().out == ""
