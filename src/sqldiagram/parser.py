"""Lexer and recursive-descent parser for the supported SQL fragment.

Keywords are case-insensitive, identifiers preserve their case; `--` and
`/* */` comments are skipped and `''` in a string is one quote.  Anything
outside the fragment is rejected explicitly: recognisable but unsupported
constructs (OR, GROUP BY, aggregates, ...) raise UnsupportedFeatureError,
everything else raises SqlSyntaxError with line/column information.

A predicate reads its optional leading NOT once.  `x [NOT] IN (S)` parses
to the node of `[NOT] x = ANY (S)`: QuantifiedComparison(negated, x, "=", "ANY", S).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import SqlSyntaxError, UnsupportedFeatureError
from .sqlast import (
    FLIPPED_OP,
    ColumnRef,
    Comparison,
    Constant,
    Exists,
    PredicateAst,
    QuantifiedComparison,
    QueryAst,
    TableRef,
)

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "AS", "NOT", "EXISTS", "IN", "ANY", "ALL",
    # recognised only to be rejected with a precise diagnostic
    "OR", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "UNION", "DISTINCT",
    "JOIN", "INNER", "OUTER", "LEFT", "RIGHT", "FULL", "CROSS", "ON",
}

_CLAUSE_FEATURES = {
    "GROUP": "GROUP BY",
    "HAVING": "HAVING",
    "ORDER": "ORDER BY",
    "LIMIT": "LIMIT",
    "UNION": "UNION",
}

_OUTER_JOIN_KEYWORDS = {"LEFT", "RIGHT", "FULL", "OUTER"}

# Deepest subquery nesting accepted.  Each level costs the recursive descent
# (and every later stage) a few stack frames, so deeper input would exhaust
# the interpreter's stack instead of getting a diagnostic; the bound leaves
# room below the default recursion limit for a caller's own frames.
MAX_NESTING_DEPTH = 200


class Token(NamedTuple):
    kind: str  # KEYWORD OP IDENT NUMBER STRING LPAREN RPAREN COMMA DOT STAR SEMI ARITH EOF
    text: str
    line: int
    column: int


# One alternative per lexeme, most frequent first, each taking the blanks
# after it; the last one takes any character that nothing else accepts.  A
# sign is never part of a NUMBER: the parser reads it where a constant may
# stand, so `S.b - 1` stays an arithmetic expression.  A NUMBER is decimal
# digits (\d, str.isdecimal) of any script; an IDENT that starts with another
# numeral, such as "²", is rejected in `tokenize`.
_SCANNER = re.compile(r"""
  (?:
    (?P<IDENT>[^\W\d]\w*)
  | (?P<DOT>\.)
  | (?P<OP><=|>=|<>|[<>=])
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<STRING>'(?:[^'\n]|'')*')
  | (?P<NEWLINE>\n)
  | (?P<SKIP>[ \t\r]+|--[^\n]*|/\*(?s:.*?)\*/)
  | (?P<UNTERMINATED>'|/\*)
  | (?P<STAR>\*)
  | (?P<SEMI>;)
  | (?P<ARITH>[-+/%])
  | (?P<UNEXPECTED>.)
  )[ \t\r]*
""", re.VERBOSE)
_SPECIAL = frozenset(("STRING", "NEWLINE", "SKIP", "UNTERMINATED", "UNEXPECTED"))
_new_token = tuple.__new__  # builds a Token without the Python-level Token.__new__ call

def tokenize(sql_text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _SCANNER.finditer(sql_text):
        kind = m.lastgroup
        start, end = m.span(kind)
        text = sql_text[start:end]
        if kind == "IDENT":
            upper = text.upper()
            if upper in KEYWORDS:
                kind, text = "KEYWORD", upper
            elif not (text[0].isalpha() or text[0] == "_"):
                raise SqlSyntaxError(f"unexpected character {text[0]!r}", line,
                                     start - line_start + 1)
        elif kind in _SPECIAL:
            if kind == "STRING":
                text = text[1:-1].replace("''", "'")
            elif kind == "UNTERMINATED":
                what = "string literal" if text == "'" else "block comment"
                raise SqlSyntaxError(f"unterminated {what}", line, start - line_start + 1)
            elif kind == "UNEXPECTED":
                raise SqlSyntaxError(f"unexpected character {text!r}", line, start - line_start + 1)
            else:
                newlines = text.count("\n")  # a newline, or a block comment across lines
                if newlines:
                    line += newlines
                    line_start = start + text.rindex("\n") + 1
                continue
        tokens.append(_new_token(Token, (kind, text, line, start - line_start + 1)))
    tokens.append(_new_token(Token, ("EOF", "", line, len(sql_text) - line_start + 1)))
    return tokens


class _Parser:
    """Reads tokens with `_peek` (look), `_match` (take when it fits, else
    None), `_expect` (take or raise) and `_match_constant`.  Nothing takes
    the EOF token, so `_pos` never passes the end of the list."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ---------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _match(self, kind: str, text: str | None = None) -> Token | None:
        tok = self._tokens[self._pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            return None
        self._pos += 1
        return tok

    def _expect(self, kind: str, text: str | None = None, expected: str | None = None) -> Token:
        tok = self._match(kind, text)
        if tok is None:
            tok = self._tokens[self._pos]
            raise SqlSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column,
                                 expected or text or kind)
        return tok

    def _match_constant(self) -> Constant | None:
        """Takes a string, a number, or a sign directly before a number."""
        tok = self._tokens[self._pos]
        if tok.kind == "STRING" or tok.kind == "NUMBER":
            self._pos += 1
            return Constant(kind="string" if tok.kind == "STRING" else "number", literal=tok.text)
        if tok.kind == "ARITH" and tok.text in "+-" and self._tokens[self._pos + 1].kind == "NUMBER":
            self._pos += 2
            sign = "-" if tok.text == "-" else ""
            return Constant(kind="number", literal=sign + self._tokens[self._pos - 1].text)
        return None

    def _unsupported(self, feature: str, tok: Token):
        raise UnsupportedFeatureError(feature, tok.line, tok.column)

    def _reject_arithmetic(self):
        tok = self._peek()
        if tok.kind == "ARITH" or tok.kind == "STAR":
            self._unsupported("arithmetic expression", tok)

    # -- grammar ----------------------------------------------------------

    def parse_statement(self) -> QueryAst:
        query = self._parse_query(depth=0)
        self._match("SEMI")
        tok = self._peek()
        if tok.kind != "EOF":
            if tok.kind == "KEYWORD" and tok.text == "UNION":
                self._unsupported("UNION", tok)
            raise SqlSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column, "end of statement")
        return query

    def _parse_query(self, depth: int) -> QueryAst:
        select = self._expect("KEYWORD", "SELECT")
        if depth > MAX_NESTING_DEPTH:
            self._unsupported(f"subquery nesting deeper than {MAX_NESTING_DEPTH} levels", select)
        distinct = self._match("KEYWORD", "DISTINCT")
        if distinct:
            self._unsupported("DISTINCT", distinct)
        select_list = self._parse_select_list(depth)
        self._expect("KEYWORD", "FROM")
        from_list = self._parse_from_list()
        where: tuple[PredicateAst, ...] = ()
        if self._match("KEYWORD", "WHERE"):
            where = self._parse_conjunction(depth)
        tok = self._peek()
        if tok.kind == "KEYWORD" and tok.text in _CLAUSE_FEATURES:
            self._unsupported(_CLAUSE_FEATURES[tok.text], tok)
        return QueryAst(select_list=select_list, from_list=from_list, where_clause=where)

    def _parse_select_list(self, depth: int) -> tuple[ColumnRef, ...]:
        star = self._match("STAR")
        if star:
            if depth == 0:
                raise SqlSyntaxError(
                    "SELECT * is only supported inside subqueries", star.line, star.column,
                    "a column list at the root query")
            return ()
        columns = [self._parse_column_ref()]
        self._reject_arithmetic()
        while self._match("COMMA"):
            columns.append(self._parse_column_ref())
            self._reject_arithmetic()
        return tuple(columns)

    def _parse_column_ref(self) -> ColumnRef:
        if self._peek().kind == "ARITH":
            self._unsupported("arithmetic expression", self._peek())
        first = self._expect("IDENT", expected="a column reference")
        if self._peek().kind == "LPAREN":
            # identifier immediately followed by ( is a function call
            self._unsupported("aggregate", first)
        if self._match("DOT"):
            attr = self._expect("IDENT", expected="an attribute name")
            return ColumnRef(alias=first.text, attribute=attr.text,
                             line=first.line, column=first.column)
        return ColumnRef(alias=None, attribute=first.text,
                         line=first.line, column=first.column)

    def _parse_from_list(self) -> tuple[TableRef, ...]:
        tables = [self._parse_table_ref()]
        while self._match("COMMA"):
            tables.append(self._parse_table_ref())
        tok = self._peek()
        if tok.kind == "KEYWORD" and tok.text in _OUTER_JOIN_KEYWORDS:
            self._unsupported("outer join", tok)
        if tok.kind == "KEYWORD" and tok.text in ("JOIN", "INNER", "CROSS", "ON"):
            raise SqlSyntaxError(
                "explicit JOIN syntax is not part of the fragment", tok.line, tok.column,
                "an implicit join (comma-separated tables)")
        return tuple(tables)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect("IDENT", expected="a table name")
        if self._match("KEYWORD", "AS"):
            alias = self._expect("IDENT", expected="a table alias")
        else:
            alias = self._match("IDENT") or name
        return TableRef(table_name=name.text, alias=alias.text,
                        line=alias.line, column=alias.column)

    def _parse_conjunction(self, depth: int) -> tuple[PredicateAst, ...]:
        parts = [self._parse_predicate(depth)]
        while self._match("KEYWORD", "AND"):
            parts.append(self._parse_predicate(depth))
        disjunction = self._match("KEYWORD", "OR")
        if disjunction:
            self._unsupported("OR", disjunction)
        return tuple(parts)

    def _parse_predicate(self, depth: int) -> PredicateAst:
        negated = self._match("KEYWORD", "NOT") is not None
        if self._match("KEYWORD", "EXISTS"):
            return Exists(negated=negated, subquery=self._parse_parenthesized_query(depth))
        constant = None if negated else self._match_constant()
        if constant:
            # constant-first comparison: normalise to put the column on the left
            op = self._expect("OP", expected="a comparison operator").text
            rhs_tok = self._peek()
            if self._match_constant():
                raise SqlSyntaxError(
                    "comparison between two constants", rhs_tok.line, rhs_tok.column,
                    "at most one constant operand")
            column = self._parse_column_ref()
            self._reject_arithmetic()
            return Comparison(lhs=column, op=FLIPPED_OP[op], rhs=constant)
        column = self._parse_column_ref()
        if negated:
            # NOT x op ANY|ALL (S); x [NOT] IN (S) takes no leading NOT
            op = self._expect("OP", expected="a comparison operator").text
        else:
            self._reject_arithmetic()
            if self._match("KEYWORD", "NOT"):
                negated = True
                self._expect("KEYWORD", "IN")
            if negated or self._match("KEYWORD", "IN"):  # [NOT] x = ANY (S)
                return QuantifiedComparison(negated, column, "=", "ANY",
                                            self._parse_parenthesized_query(depth))
            op = self._expect("OP", expected="a comparison operator, IN or NOT IN").text
        quantifier = self._match("KEYWORD", "ANY") or self._match("KEYWORD", "ALL")
        if quantifier:
            return QuantifiedComparison(negated, column, op, quantifier.text,
                                        self._parse_parenthesized_query(depth))
        nxt = self._peek()
        if negated:
            raise SqlSyntaxError(
                f"unexpected {nxt.text!r} after NOT comparison", nxt.line, nxt.column,
                "ANY or ALL")
        if nxt.kind == "LPAREN":
            raise SqlSyntaxError(
                "scalar subquery comparison is not part of the fragment",
                nxt.line, nxt.column, "a column, a constant, ANY or ALL")
        rhs = self._match_constant() or self._parse_column_ref()
        self._reject_arithmetic()
        return Comparison(lhs=column, op=op, rhs=rhs)

    def _parse_parenthesized_query(self, depth: int) -> QueryAst:
        self._expect("LPAREN")
        query = self._parse_query(depth + 1)
        self._expect("RPAREN")
        return query


def parse(sql_text: str) -> QueryAst:
    """Parse one SELECT statement of the supported fragment into an AST."""
    return _Parser(tokenize(sql_text)).parse_statement()
