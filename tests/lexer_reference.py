"""Reference lexers for differential tests.

`reference_tokenize` is the earlier character-walking `tokenize`, kept as an
independent check on the package's scanner: it walks the input one
character at a time with str.isdecimal, str.isalpha and str.isalnum.  It knows
no comments, no doubled-quote escapes and no exponents, so compare the two
only on input without them.

`scanner_tokenize` is the earlier named-group scanner: one alternative per
kind of lexeme, read back through each match's `lastgroup` and `span`.  It
reads comments, doubled quotes and exponents, so it checks the package's
scanner on that input too, and it raises the same errors at the same
positions.  Both return plain named tuples, so a token stream compares equal
to the package's when every field does.
"""

import re
from typing import NamedTuple

from sqldiagram.errors import SqlSyntaxError
from sqldiagram.parser import KEYWORDS


class Token(NamedTuple):
    kind: str  # KEYWORD OP IDENT NUMBER STRING LPAREN RPAREN COMMA DOT STAR SEMI ARITH EOF
    text: str
    line: int
    column: int


def reference_tokenize(sql_text: str) -> list[Token]:
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
        if ch.isdecimal():
            j = i
            while j < n and sql_text[j].isdecimal():
                j += 1
            if j < n and sql_text[j] == "." and j + 1 < n and sql_text[j + 1].isdecimal():
                j += 1
                while j < n and sql_text[j].isdecimal():
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


def scanner_tokenize(sql_text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _SCANNER.finditer(sql_text):
        kind = m.lastgroup
        start, end = m.span(kind)
        text = sql_text[start:end]
        column = start - line_start + 1
        if kind == "IDENT":
            upper = text.upper()
            if upper in KEYWORDS:
                kind, text = "KEYWORD", upper
            elif not (text[0].isalpha() or text[0] == "_"):
                raise SqlSyntaxError(f"unexpected character {text[0]!r}", line, column)
        elif kind == "STRING":
            text = text[1:-1].replace("''", "'")
        elif kind == "UNTERMINATED":
            what = "string literal" if text == "'" else "block comment"
            raise SqlSyntaxError(f"unterminated {what}", line, column)
        elif kind == "UNEXPECTED":
            raise SqlSyntaxError(f"unexpected character {text!r}", line, column)
        elif kind in ("NEWLINE", "SKIP"):
            newlines = text.count("\n")  # a newline, or a block comment across lines
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token("EOF", "", line, len(sql_text) - line_start + 1))
    return tokens
