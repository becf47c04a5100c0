"""Session settings: the one table behind ``SET`` and the ``PlanContext``.

Every ``SET <option>`` a session accepts is one row of :data:`SETTINGS`;
the values live in an immutable :class:`PlanContext` owned by the session
and handed to ``Engine.execute``, the only reader.  No setting reaches
bind, optimize or the operators: which plan runs depends only on the
statement and the catalog.  Nothing reads a setting from the shared
database object, so one connection's ``SET`` can never change another's
statements, and ``Session.reset()`` restores every setting by rebuilding
the context from :func:`defaults`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.vertica.errors import SqlError


@dataclass(frozen=True)
class PlanContext:
    """One session's settings."""

    #: whether top-level SELECTs consult the server-side result cache
    result_cache: bool = False
    #: the WLM pool the session's statements admit through
    resource_pool: str = "GENERAL"


#: ``SET <option>`` → (PlanContext field, {accepted spelling: stored value});
#: ``None`` accepts the name of any resource pool in the catalog
SETTINGS: Dict[str, Tuple[str, Optional[Dict[str, Any]]]] = {
    "RESOURCE_POOL": ("resource_pool", None),
    "RESULT_CACHE": ("result_cache", {"on": True, "off": False}),
}


def defaults(database) -> PlanContext:
    """The context a just-connected (or just-reset) session starts with."""
    return PlanContext(result_cache=database.result_cache_default)


def with_setting(context: PlanContext, catalog, name: str, value: Any) -> PlanContext:
    """``context`` after ``SET name = value``; rejects what the table does not list."""
    option = name.upper()
    if option not in SETTINGS:
        raise _rejected("unknown session option", name, SETTINGS)
    attribute, accepted = SETTINGS[option]
    if accepted is None:
        stored = catalog.resource_pool(str(value)).name  # CatalogError if absent
    else:
        spelling = str(value).lower()
        if spelling not in accepted:
            raise _rejected(f"invalid {option}", value, accepted)
        stored = accepted[spelling]
    return replace(context, **{attribute: stored})


def _rejected(what: str, got: Any, allowed: Iterable[str]) -> SqlError:
    return SqlError(f"{what} {got!r} (expected one of: {', '.join(allowed)})")
