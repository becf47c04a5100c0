"""Frozen reference lexer: the per-character ``tokenize`` the master
pattern in ``repro.vertica.sql.lexer`` replaced.

Verbatim the loop and its three ``_read_*`` helpers as they were, with one
change: every token records the offset where it *starts* (the old loop
recorded the end offset for identifiers, numbers and strings, and the
start for operators).  ``tests/test_lexer_differential.py`` holds the
compiled lexer to this one: equal ``(kind, text, raw, pos)`` tuples, or an
equal error class and message.
"""

from __future__ import annotations

from typing import List

from repro.vertica.errors import SqlError
from repro.vertica.sql.lexer import Token

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
        start = i
        if char == "'":
            value, i = _read_string(sql, i)
            tokens.append(Token("STRING", value, value, start))
            continue
        if char.isdigit() or (
            char == "." and i + 1 < n and sql[i + 1].isdigit()
        ):
            text, i = _read_number(sql, i)
            tokens.append(Token("NUMBER", text, text, start))
            continue
        if char.isalpha() or char == "_" or char == '"':
            text, raw, i = _read_identifier(sql, i)
            tokens.append(Token("IDENT", text, raw, start))
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
