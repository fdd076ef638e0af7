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


# One findall pass: each item is a lexeme and the blanks (newlines too)
# after it, so no match object is built.  A lexeme's kind comes from _FIXED
# or from its first character, its column from a running offset.  Order
# matters: `<=` before `<`, a comment before `-` and `/`, a whole string
# before a lone quote (which the last alternative, any one character, takes);
# `/*` without `*/` is unterminated.  A sign is never part of a NUMBER, so
# `S.b - 1` stays arithmetic; a NUMBER is decimal digits (\d) of any script,
# and a name that starts with another numeral, such as "²", is an error.
_SCANNER = re.compile(r"""
  ( [^\W\d]\w*
  | <= | >= | <>
  | \d+(?:\.\d+)?(?:[eE][+-]?\d+)?
  | '(?:[^'\n]|'')*'
  | --[^\n]* | /\*(?:.*?\*/)?
  | .
  )
  ([ \t\r\n]*)
""", re.VERBOSE | re.DOTALL)
_FIXED = {".": "DOT", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", "*": "STAR", ";": "SEMI",
          **dict.fromkeys(("<=", ">=", "<>", "<", ">", "="), "OP"), **dict.fromkeys("+-/%", "ARITH")}
_new_token = tuple.__new__  # builds a Token without the Python-level Token.__new__ call

def tokenize(sql_text: str) -> list[Token]:
    tokens: list[Token] = []
    offset = len(sql_text) - len(sql_text.lstrip(" \t\r\n"))
    line, line_start = sql_text.count("\n", 0, offset) + 1, sql_text.rfind("\n", 0, offset) + 1
    for text, blanks in _SCANNER.findall(sql_text, offset):
        column = offset - line_start + 1
        offset += len(text) + len(blanks)
        kind = _FIXED.get(text)
        if kind is None:
            first = text[0]
            if first.isalpha() or first == "_":
                upper = text.upper()
                kind, text = ("KEYWORD", upper) if upper in KEYWORDS else ("IDENT", text)
            elif first.isdecimal():
                kind = "NUMBER"
            elif first == "'" and len(text) > 1:
                kind, text = "STRING", text[1:-1].replace("''", "'")
            elif first in "-/" and text != "/*":  # a comment counts as blanks
                blanks = text + blanks
            else:  # a lone quote, `/*` without `*/`, or a character nothing takes
                message = {"'": "unterminated string literal", "/*": "unterminated block comment"}
                raise SqlSyntaxError(message.get(text, f"unexpected character {first!r}"), line, column)
        if kind:
            tokens.append(_new_token(Token, (kind, text, line, column)))
        if "\n" in blanks:
            line += blanks.count("\n")
            line_start = offset - len(blanks) + blanks.rindex("\n") + 1
    tokens.append(_new_token(Token, ("EOF", "", line, offset - line_start + 1)))
    return tokens


class _Parser:
    """Reads tokens with `_peek` (look), `_match` (take when it fits, else
    None), `_expect` (take or raise) and `_match_constant`.  Nothing takes
    the EOF token, so `_pos` never passes the end of the list.  The hot rules
    `_parse_column_ref` and `_parse_predicate` read each token once and branch
    on it; a read at `pos + 1` or `pos + 2` is safe only because the token
    before it is not EOF."""

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
            return Constant("string" if tok.kind == "STRING" else "number", tok.text)
        if tok.kind == "ARITH" and tok.text in "+-" and self._tokens[self._pos + 1].kind == "NUMBER":
            self._pos += 2
            sign = "-" if tok.text == "-" else ""
            return Constant("number", sign + self._tokens[self._pos - 1].text)
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
        return QueryAst(select_list, from_list, where)

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
        tokens, pos = self._tokens, self._pos
        first = tokens[pos]
        if first.kind != "IDENT":
            if first.kind == "ARITH":
                self._unsupported("arithmetic expression", first)
            self._expect("IDENT", expected="a column reference")  # raises
        nxt = tokens[pos + 1]
        if nxt.kind == "LPAREN":
            # identifier immediately followed by ( is a function call
            self._unsupported("aggregate", first)
        if nxt.kind != "DOT":
            self._pos = pos + 1
            return ColumnRef(None, first.text, first.line, first.column)
        attr = tokens[pos + 2]
        if attr.kind != "IDENT":
            self._pos = pos + 2
            self._expect("IDENT", expected="an attribute name")  # raises
        self._pos = pos + 3
        return ColumnRef(first.text, attr.text, first.line, first.column)

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
        return TableRef(name.text, alias.text, alias.line, alias.column)

    def _parse_conjunction(self, depth: int) -> tuple[PredicateAst, ...]:
        parts = [self._parse_predicate(depth)]
        while self._match("KEYWORD", "AND"):
            parts.append(self._parse_predicate(depth))
        disjunction = self._match("KEYWORD", "OR")
        if disjunction:
            self._unsupported("OR", disjunction)
        return tuple(parts)

    def _parse_predicate(self, depth: int) -> PredicateAst:
        tok = self._tokens[self._pos]
        negated = tok.kind == "KEYWORD" and tok.text == "NOT"
        if negated:
            self._pos += 1
            tok = self._tokens[self._pos]
        if tok.kind == "KEYWORD" and tok.text == "EXISTS":
            self._pos += 1
            return Exists(negated, self._parse_parenthesized_query(depth))
        constant = None if negated or tok.kind == "IDENT" else self._match_constant()
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
            return Comparison(column, FLIPPED_OP[op], constant)
        column = self._parse_column_ref()
        tok = self._tokens[self._pos]
        if tok.kind != "OP":
            if negated:
                # NOT x op ANY|ALL (S); x [NOT] IN (S) takes no leading NOT
                self._expect("OP", expected="a comparison operator")  # raises
            self._reject_arithmetic()
            if self._match("KEYWORD", "NOT"):
                negated = True
                self._expect("KEYWORD", "IN")
            if negated or self._match("KEYWORD", "IN"):  # [NOT] x = ANY (S)
                return QuantifiedComparison(negated, column, "=", "ANY",
                                            self._parse_parenthesized_query(depth))
            self._expect("OP", expected="a comparison operator, IN or NOT IN")  # raises
        self._pos += 1
        op, tok = tok.text, self._tokens[self._pos]
        if tok.kind == "KEYWORD" and tok.text in ("ANY", "ALL"):
            self._pos += 1
            return QuantifiedComparison(negated, column, op, tok.text,
                                        self._parse_parenthesized_query(depth))
        if negated:
            raise SqlSyntaxError(
                f"unexpected {tok.text!r} after NOT comparison", tok.line, tok.column,
                "ANY or ALL")
        if tok.kind == "LPAREN":
            raise SqlSyntaxError(
                "scalar subquery comparison is not part of the fragment",
                tok.line, tok.column, "a column, a constant, ANY or ALL")
        rhs = self._match_constant() or self._parse_column_ref()
        self._reject_arithmetic()
        return Comparison(column, op, rhs)

    def _parse_parenthesized_query(self, depth: int) -> QueryAst:
        self._expect("LPAREN")
        query = self._parse_query(depth + 1)
        self._expect("RPAREN")
        return query


def parse(sql_text: str) -> QueryAst:
    """Parse one SELECT statement of the supported fragment into an AST."""
    return _Parser(tokenize(sql_text)).parse_statement()
