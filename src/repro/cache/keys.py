"""Statement normalization for cache keys.

Every cache tier keys on the *token stream*, not the raw SQL text, so
whitespace, comments, and identifier case never fragment a cache: the
canonical key is rendered by ``repro.vertica.sql.lexer.lex`` from the
same tokens the parser reads, with identifiers uppercased and literals
preserved.  Two spellings of the same statement share one parse-, plan-
and result-cache entry.

Literals cannot be normalized out of the key: the optimizer
constant-folds, pushes predicates into scans, and prunes segments from
hash-range literals, so a plan is only reusable for the exact literal
vector it was optimized with (``docs/CACHING.md`` discusses the
trade-off).
"""

from __future__ import annotations


def canonical_sql(sql: str) -> str:
    """Whitespace/case/comment-insensitive canonical form of ``sql``."""
    # Imported lazily: the lexer lives under repro.vertica, whose database
    # module imports this package — a module-level import here would make
    # ``import repro.cache`` order-dependent.
    from repro.vertica.sql.lexer import lex

    return lex(sql)[1]


def statement_digest(canonical: str) -> str:
    """Short stable digest of a canonical statement (EXPLAIN-friendly)."""
    # Imported here: hashlib maps OpenSSL's libcrypto (~3.5 MB of RSS), and
    # only EXPLAIN's result-cache line takes this digest.
    import hashlib

    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
