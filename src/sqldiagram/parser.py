"""Lexer and recursive-descent parser for the supported SQL fragment.

Keywords are case-insensitive, identifiers preserve their case.  Anything
outside the fragment is rejected explicitly: recognisable but unsupported
constructs (OR, GROUP BY, aggregates, ...) raise UnsupportedFeatureError,
everything else raises SqlSyntaxError with line/column information.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SqlSyntaxError, UnsupportedFeatureError
from .sqlast import (
    COMPARE_OPS,
    FLIPPED_OP,
    ColumnRef,
    Comparison,
    Conjunction,
    Constant,
    Exists,
    InSubquery,
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


@dataclass(frozen=True)
class Token:
    kind: str  # KEYWORD OP IDENT NUMBER STRING LPAREN RPAREN COMMA DOT STAR SEMI ARITH EOF
    text: str
    line: int
    column: int


def tokenize(sql_text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(sql_text)
    while i < n:
        ch = sql_text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_line, start_col = line, col
        if ch == "'":
            j = sql_text.find("'", i + 1)
            if j < 0:
                raise SqlSyntaxError("unterminated string literal", start_line, start_col)
            literal = sql_text[i + 1:j]
            if "\n" in literal:
                raise SqlSyntaxError("unterminated string literal", start_line, start_col)
            tokens.append(Token("STRING", literal, start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and sql_text[j].isdigit():
                j += 1
            if j < n and sql_text[j] == "." and j + 1 < n and sql_text[j + 1].isdigit():
                j += 1
                while j < n and sql_text[j].isdigit():
                    j += 1
            tokens.append(Token("NUMBER", sql_text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql_text[j].isalnum() or sql_text[j] == "_"):
                j += 1
            word = sql_text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, start_line, start_col))
            else:
                tokens.append(Token("IDENT", word, start_line, start_col))
            col += j - i
            i = j
            continue
        two = sql_text[i:i + 2]
        if two in ("<=", ">=", "<>"):
            tokens.append(Token("OP", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in "<>=":
            tokens.append(Token("OP", ch, start_line, start_col))
        elif ch == "(":
            tokens.append(Token("LPAREN", ch, start_line, start_col))
        elif ch == ")":
            tokens.append(Token("RPAREN", ch, start_line, start_col))
        elif ch == ",":
            tokens.append(Token("COMMA", ch, start_line, start_col))
        elif ch == ".":
            tokens.append(Token("DOT", ch, start_line, start_col))
        elif ch == "*":
            tokens.append(Token("STAR", ch, start_line, start_col))
        elif ch == ";":
            tokens.append(Token("SEMI", ch, start_line, start_col))
        elif ch in "+-/%":
            tokens.append(Token("ARITH", ch, start_line, start_col))
        else:
            raise SqlSyntaxError(f"unexpected character {ch!r}", start_line, start_col)
        i += 1
        col += 1
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ---------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        pos = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def _check(self, kind: str, text: str | None = None) -> bool:
        tok = self._peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def _match(self, kind: str, text: str | None = None) -> Token | None:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str | None = None, expected: str | None = None) -> Token:
        tok = self._peek()
        if self._check(kind, text):
            return self._advance()
        shown = expected or text or kind
        raise SqlSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column, shown)

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
        if self._check("KEYWORD", "DISTINCT"):
            self._unsupported("DISTINCT", self._peek())
        select_list = self._parse_select_list(depth)
        self._expect("KEYWORD", "FROM")
        from_list = self._parse_from_list()
        where = None
        if self._match("KEYWORD", "WHERE"):
            where = self._parse_conjunction(depth)
        tok = self._peek()
        if tok.kind == "KEYWORD" and tok.text in _CLAUSE_FEATURES:
            self._unsupported(_CLAUSE_FEATURES[tok.text], tok)
        return QueryAst(select_list=select_list, from_list=from_list, where_clause=where)

    def _parse_select_list(self, depth: int) -> tuple[ColumnRef, ...]:
        if self._check("STAR"):
            star = self._advance()
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
        if self._check("LPAREN"):
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
        while True:
            if self._match("COMMA"):
                tables.append(self._parse_table_ref())
                continue
            tok = self._peek()
            if tok.kind == "KEYWORD" and tok.text in _OUTER_JOIN_KEYWORDS:
                self._unsupported("outer join", tok)
            if tok.kind == "KEYWORD" and tok.text in ("JOIN", "INNER", "CROSS", "ON"):
                raise SqlSyntaxError(
                    "explicit JOIN syntax is not part of the fragment", tok.line, tok.column,
                    "an implicit join (comma-separated tables)")
            break
        return tuple(tables)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect("IDENT", expected="a table name")
        if self._match("KEYWORD", "AS"):
            alias = self._expect("IDENT", expected="a table alias")
            return TableRef(table_name=name.text, alias=alias.text)
        if self._check("IDENT"):
            alias = self._advance()
            return TableRef(table_name=name.text, alias=alias.text)
        return TableRef(table_name=name.text, alias=name.text)

    def _parse_conjunction(self, depth: int) -> Conjunction:
        parts = [self._parse_predicate(depth)]
        while True:
            if self._match("KEYWORD", "AND"):
                parts.append(self._parse_predicate(depth))
                continue
            tok = self._peek()
            if tok.kind == "KEYWORD" and tok.text == "OR":
                self._unsupported("OR", tok)
            break
        return Conjunction(parts=tuple(parts))

    def _parse_predicate(self, depth: int) -> PredicateAst:
        tok = self._peek()
        if tok.kind == "KEYWORD" and tok.text == "NOT":
            self._advance()
            if self._match("KEYWORD", "EXISTS"):
                return Exists(negated=True, subquery=self._parse_parenthesized_query(depth))
            column = self._parse_column_ref()
            op = self._expect("OP", expected="a comparison operator").text
            mode_tok = self._peek()
            if mode_tok.kind == "KEYWORD" and mode_tok.text in ("ANY", "ALL"):
                self._advance()
                sub = self._parse_parenthesized_query(depth)
                return QuantifiedComparison(negated=True, column=column, op=op,
                                            mode=mode_tok.text, subquery=sub)
            raise SqlSyntaxError(
                f"unexpected {mode_tok.text!r} after NOT comparison",
                mode_tok.line, mode_tok.column, "ANY or ALL")
        if tok.kind == "KEYWORD" and tok.text == "EXISTS":
            self._advance()
            return Exists(negated=False, subquery=self._parse_parenthesized_query(depth))
        if tok.kind in ("STRING", "NUMBER"):
            # constant-first comparison: normalise to put the column on the left
            constant = self._parse_constant()
            op = self._expect("OP", expected="a comparison operator").text
            rhs_tok = self._peek()
            if rhs_tok.kind in ("STRING", "NUMBER"):
                raise SqlSyntaxError(
                    "comparison between two constants", rhs_tok.line, rhs_tok.column,
                    "at most one constant operand")
            column = self._parse_column_ref()
            self._reject_arithmetic()
            return Comparison(lhs=column, op=FLIPPED_OP[op], rhs=constant)
        column = self._parse_column_ref()
        self._reject_arithmetic()
        if self._match("KEYWORD", "NOT"):
            self._expect("KEYWORD", "IN")
            return InSubquery(negated=True, column=column, subquery=self._parse_parenthesized_query(depth))
        if self._match("KEYWORD", "IN"):
            return InSubquery(negated=False, column=column, subquery=self._parse_parenthesized_query(depth))
        op_tok = self._expect("OP", expected="a comparison operator, IN or NOT IN")
        if op_tok.text not in COMPARE_OPS:
            raise SqlSyntaxError(f"unknown operator {op_tok.text!r}", op_tok.line, op_tok.column)
        nxt = self._peek()
        if nxt.kind == "KEYWORD" and nxt.text in ("ANY", "ALL"):
            self._advance()
            sub = self._parse_parenthesized_query(depth)
            return QuantifiedComparison(negated=False, column=column, op=op_tok.text,
                                        mode=nxt.text, subquery=sub)
        if nxt.kind == "LPAREN":
            raise SqlSyntaxError(
                "scalar subquery comparison is not part of the fragment",
                nxt.line, nxt.column, "a column, a constant, ANY or ALL")
        if nxt.kind == "ARITH":
            self._unsupported("arithmetic expression", nxt)
        if nxt.kind in ("STRING", "NUMBER"):
            rhs: ColumnRef | Constant = self._parse_constant()
        else:
            rhs = self._parse_column_ref()
        self._reject_arithmetic()
        return Comparison(lhs=column, op=op_tok.text, rhs=rhs)

    def _parse_constant(self) -> Constant:
        tok = self._advance()
        kind = "string" if tok.kind == "STRING" else "number"
        return Constant(kind=kind, literal=tok.text)

    def _parse_parenthesized_query(self, depth: int) -> QueryAst:
        self._expect("LPAREN")
        query = self._parse_query(depth + 1)
        self._expect("RPAREN")
        return query


def parse(sql_text: str) -> QueryAst:
    """Parse one SELECT statement of the supported fragment into an AST."""
    return _Parser(tokenize(sql_text)).parse_statement()
