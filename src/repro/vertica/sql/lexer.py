"""SQL lexer.

Produces a flat token stream: keywords/identifiers (case-insensitive,
uppercased kind ``IDENT`` with original text preserved), numeric literals,
single-quoted string literals with ``''`` escaping, operators and
punctuation.  Comments (``-- ...`` and ``/* ... */``) are skipped.  :func:`lex` is the
front door: one ``tokenize`` per statement text, yielding the tokens the
parser reads and the canonical key the caches share.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from repro.vertica.errors import SqlError


class Token(NamedTuple):
    kind: str  # IDENT | NUMBER | STRING | OP | EOF
    text: str  # canonical text (identifiers uppercased)
    raw: str  # original text
    pos: int  # character offset in the source


_TWO_CHAR_OPS = ("<>", "!=", "<=", ">=", "||")
_ONE_CHAR_OPS = "(),.*+-/%=<>;"


def tokenize(sql: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        char = sql[i]
        if char.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise SqlError(f"unterminated comment at offset {i}")
            i = end + 2
            continue
        if char == "'":
            value, i = _read_string(sql, i)
            tokens.append(Token("STRING", value, value, i))
            continue
        if char.isdigit() or (
            char == "." and i + 1 < n and sql[i + 1].isdigit()
        ):
            text, i = _read_number(sql, i)
            tokens.append(Token("NUMBER", text, text, i))
            continue
        if char.isalpha() or char == "_" or char == '"':
            text, raw, i = _read_identifier(sql, i)
            tokens.append(Token("IDENT", text, raw, i))
            continue
        matched = False
        for op in _TWO_CHAR_OPS:
            if sql.startswith(op, i):
                tokens.append(Token("OP", op, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if char in _ONE_CHAR_OPS:
            tokens.append(Token("OP", char, char, i))
            i += 1
            continue
        raise SqlError(f"unexpected character {char!r} at offset {i}")
    tokens.append(Token("EOF", "", "", n))
    return tokens


#: what :func:`lex` returns: a statement's tokens and its canonical key
Lexed = Tuple[List[Token], str]


def lex(sql: str) -> Lexed:
    """The statement's one lexing: its tokens and its canonical key.

    The key is the token texts joined by single spaces (identifiers
    uppercased, string literals re-quoted, comments and whitespace gone),
    so every spelling of a statement shares one parse-, plan- and
    result-cache entry.  The parser reads the same token list.
    """
    tokens = tokenize(sql)
    key = " ".join(
        "'" + token.text.replace("'", "''") + "'"
        if token.kind == "STRING" else token.text
        for token in tokens[:-1]
    )
    return tokens, key


def _read_string(sql: str, start: int) -> tuple:
    out = []
    i = start + 1
    n = len(sql)
    while i < n:
        char = sql[i]
        if char == "'":
            if i + 1 < n and sql[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return "".join(out), i + 1
        out.append(char)
        i += 1
    raise SqlError(f"unterminated string literal starting at offset {start}")


def _read_number(sql: str, start: int) -> tuple:
    i = start
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        char = sql[i]
        if char.isdigit():
            i += 1
        elif char == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif char in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < n and sql[i] in "+-":
                i += 1
        else:
            break
    return sql[start:i], i


def _read_identifier(sql: str, start: int) -> tuple:
    if sql[start] == '"':
        end = sql.find('"', start + 1)
        if end == -1:
            raise SqlError(f"unterminated quoted identifier at offset {start}")
        raw = sql[start + 1 : end]
        return raw.upper(), raw, end + 1
    i = start
    n = len(sql)
    while i < n and (sql[i].isalnum() or sql[i] in "_$"):
        i += 1
    raw = sql[start:i]
    return raw.upper(), raw, i
