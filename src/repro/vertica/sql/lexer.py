"""SQL lexer.

Produces a flat token stream: keywords/identifiers (case-insensitive,
uppercased kind ``IDENT`` with original text preserved), numeric literals,
single-quoted string literals with ``''`` escaping, operators and
punctuation.  Comments (``-- ...`` and ``/* ... */``) are skipped.  :func:`lex` is the
front door: one ``tokenize`` per statement text, yielding the tokens the
parser reads and the canonical key the caches share.

``tokenize`` is one compiled master pattern (:data:`_TOKEN`), one match
per token, with the whitespace before a token folded into its match.  Its
character classes are ``str``'s own: ``\\s`` is ``str.isspace`` and
``\\w`` is ``str.isalnum`` or ``_``; ``\\d`` is only ``str.isdecimal``, so
:data:`_DIGIT` lists the digits that are not decimal (``²``, ``①``, ...),
and an identifier that starts outside ASCII is checked with
``str.isalpha``.  ``tests/test_lexer_differential.py`` holds it to the
per-character loop it replaced (``tests/reference_lexer.py``).
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from repro.vertica.errors import SqlError


class Token(NamedTuple):
    kind: str  # IDENT | NUMBER | STRING | OP | EOF
    text: str  # canonical text (identifiers uppercased)
    raw: str  # original text
    pos: int  # character offset in the source where the token starts


#: ``str.isdigit`` as a regex class: the decimal digits (``\d``) plus every
#: character with Unicode Numeric_Type=Digit (superscripts, subscripts,
#: circled and parenthesized digits, ...).  ``tests/test_lexer_differential
#: .py`` checks it against ``str.isdigit`` over every code point.
_DIGIT = (
    r"[\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079"
    r"\u2080-\u2089\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea"
    r"\u24f5-\u24fd\u24ff\u2776-\u277e\u2780-\u2788\u278a-\u2792"
    r"\U00010a40-\U00010a43\U00010e60-\U00010e68\U00011052-\U0001105a"
    r"\U0001f100-\U0001f10a]"
)

#: One token per match, after any whitespace.  Branches are tried in order,
#: the commonest first: an operator (``-`` / ``/`` / ``.`` only when they do
#: not open a comment or a number), a number, an ASCII-led identifier, a
#: string (a closing quote is never followed by another: ``''`` inside is
#: an escaped quote, so the pattern cannot end a literal between the two),
#: a comment, an identifier led by any other letter, a quoted identifier.
#: ``OTHER`` takes the one character nothing else did — an unterminated
#: comment, string or quoted identifier, or a stray character — and at the
#: end of the text the whole alternation matches nothing.
_TOKEN = re.compile(
    rf"""\s*(?:
      (?P<OP> <> | != | <= | >= | \|\| | [(),*+=<>;%] | -(?!-) | /(?!\*)
            | \.(?!{_DIGIT}) )
    | (?P<NUMBER> (?: {_DIGIT}+ (?:\.{_DIGIT}*)? | \.{_DIGIT}+ )
                  (?:[eE][+-]?{_DIGIT}*)? )
    | (?P<IDENT> [A-Za-z_][\w$]* )
    | '(?P<STRING> [^']* (?:''[^']*)* )'(?!')
    | (?P<COMMENT> --[^\n]*\n? | /\*.*?\*/ )
    | (?P<LETTERS> [^\W\d][\w$]* )
    | "(?P<QUOTED> [^"]* )"
    | (?P<OTHER> . )
    )?""",
    re.VERBOSE | re.DOTALL,
)


def tokenize(sql: str) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # a Token without NamedTuple's Python-level __new__
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        if kind is None:  # whitespace at the end of the text
            continue
        if kind == "OP" or kind == "NUMBER":
            text = match[kind]
            append(new(Token, (kind, text, text, match.end() - len(text))))
        elif kind == "IDENT":
            raw = match[kind]
            append(new(Token, (kind, raw.upper(), raw, match.end() - len(raw))))
        elif kind == "STRING":
            text = match[kind].replace("''", "'")
            append(new(Token, (kind, text, text, match.start(kind) - 1)))
        elif kind == "QUOTED":
            raw = match[kind]
            append(new(Token, ("IDENT", raw.upper(), raw, match.start(kind) - 1)))
        elif kind == "LETTERS":
            raw = match[kind]
            start = match.start(kind)
            if not raw[0].isalpha():  # a numeric character such as "½"
                raise _error(sql, start)
            append(new(Token, ("IDENT", raw.upper(), raw, start)))
        elif kind == "OTHER":
            raise _error(sql, match.start(kind))
    append(Token("EOF", "", "", len(sql)))
    return tokens


def _error(sql: str, i: int) -> SqlError:
    """Why no token starts at offset ``i``."""
    char = sql[i]
    if sql.startswith("/*", i):
        return SqlError(f"unterminated comment at offset {i}")
    if char == "'":
        return SqlError(f"unterminated string literal starting at offset {i}")
    if char == '"':
        return SqlError(f"unterminated quoted identifier at offset {i}")
    return SqlError(f"unexpected character {char!r} at offset {i}")


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
