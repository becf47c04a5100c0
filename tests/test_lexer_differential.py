"""The compiled lexer against the frozen per-character one.

``repro.vertica.sql.lexer.tokenize`` is one master pattern;
``tests/reference_lexer.py`` is the loop it replaced.  On any text both
return the same ``(kind, text, raw, pos)`` tuples, or raise the same error
class with the same message.  The pattern's character classes are
``str``'s own predicates, checked here over every code point.
"""

import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.vertica.errors import SqlError
from repro.vertica.sql import lexer
from tests import reference_lexer

#: what the texts are spliced from: ASCII operators and punctuation, both
#: quote kinds and the doubled quote, both comment forms and their ends,
#: exponent forms, ``$``, and non-ASCII letters, digits (decimal and not),
#: a numeric character that is neither, and non-ASCII spaces
PIECES = [
    *"abzAZ_$09.+-*/%=<>!|(),;'\"\n\t ",
    "<>", "!=", "<=", ">=", "||", "''", "--", "/*", "*/", "e", "E", "1e",
    "1e+", "1.5E-3", ".5", "1.", "é", "ß", "٣", "²", "①", "½",
    " ", " ", "　", "\x1c", "\x85",
]


def outcome(tokenize, text):
    try:
        return [tuple(token) for token in tokenize(text)]
    except SqlError as error:
        return type(error), str(error)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=20).map("".join))
@example("'a''")  # a closing quote followed by another closes nothing
@example("SELECT '' '''' 'it''s'")
@example("1²³ .²e² ²")
@example("x½ ½")
def test_spliced_text_lexes_as_the_reference_does(text):
    assert outcome(lexer.tokenize, text) == outcome(reference_lexer.tokenize, text)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=12))
def test_any_text_lexes_as_the_reference_does(text):
    assert outcome(lexer.tokenize, text) == outcome(reference_lexer.tokenize, text)


EVERY_CHARACTER = "".join(map(chr, range(sys.maxunicode + 1)))


@pytest.mark.parametrize("pattern,predicate", [
    (r"\s", str.isspace),
    (r"[\w$]", lambda char: char.isalnum() or char in "_$"),
    (lexer._DIGIT, str.isdigit),
], ids=["space", "identifier-tail", "digit"])
def test_character_classes_are_strs_own(pattern, predicate):
    matched = re.findall(pattern, EVERY_CHARACTER)
    assert matched == list(filter(predicate, EVERY_CHARACTER))


def test_an_identifier_starts_with_a_letter_or_underscore():
    """Of the characters ``\\w`` holds that are not digits, exactly the
    letters and ``_`` start an identifier; the rest (``½``, ``Ⅷ``) are
    stray characters, as they were."""
    for char in re.findall(r"[^\W\d]", EVERY_CHARACTER):
        if char.isdigit():
            continue
        if char.isalpha() or char == "_":
            assert lexer.tokenize(char)[0] == ("IDENT", char.upper(), char, 0)
        else:
            with pytest.raises(SqlError, match="unexpected character"):
                lexer.tokenize(char)
