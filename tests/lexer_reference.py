"""Reference lexer for differential tests.

`reference_tokenize` is the earlier character-walking `tokenize`, kept as an
independent check on the package's regex scanner: it walks the input one
character at a time with str.isdecimal, str.isalpha and str.isalnum.  It knows
no comments, no doubled-quote escapes and no exponents, so compare the two
only on input without them.  Its tokens are plain named tuples, so a token
stream compares equal to the package's when every field does.
"""

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
