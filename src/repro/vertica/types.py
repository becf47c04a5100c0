"""SQL column types.

Vertica's type zoo is collapsed to the four types the paper's datasets and
protocol tables use: ``INTEGER`` (64-bit), ``FLOAT`` (double precision),
``VARCHAR(n)`` and ``BOOLEAN``.  Each type knows how to validate/coerce a
Python value, how wide it is on the wire (driving network cost accounting)
and how to parse from / format to CSV for the COPY path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.vertica.errors import SqlError, TypeMismatchError

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_NONE = type(None)


class SqlType:
    """Base class; concrete types are singletons or parameterised instances."""

    name = "SQLTYPE"
    #: bytes of storage one value of this type occupies (estimate)
    width = 8
    #: the Avro primitive this type maps to
    avro_kind = "string"

    def coerce(self, value: Any) -> Any:
        """Validate/convert ``value`` (None always passes, meaning SQL NULL)."""
        raise NotImplementedError

    def coerce_column(
        self, values: Sequence[Any], rejects: Dict[int, str]
    ) -> Sequence[Any]:
        """:meth:`coerce` for a whole column of values.

        A column whose values need neither conversion nor rejection (the
        common case: it was decoded from a typed file, or coerced before)
        is recognised from the *set* of its value types and returned as
        it is.  Otherwise every value goes through :meth:`coerce`; one
        that fails is reported as ``rejects[row] = reason`` — keeping an
        earlier column's reason for the same row — and leaves ``None``
        in the returned list.
        """
        if self._all_valid(set(map(type, values)), values):
            return values
        out: List[Any] = []
        for row, value in enumerate(values):
            try:
                out.append(self.coerce(value))
            except TypeMismatchError as exc:
                rejects.setdefault(row, str(exc))
                out.append(None)
        return out

    def _all_valid(self, types: Set[type], values: Sequence[Any]) -> bool:
        """Would :meth:`coerce` return every one of ``values`` unchanged?"""
        raise NotImplementedError

    def from_csv(self, token: str) -> Any:
        """Parse a CSV token; empty string means NULL."""
        if token == "":
            return None
        return self.coerce(self._parse(token))

    def _parse(self, token: str) -> Any:
        raise NotImplementedError

    def to_csv(self, value: Any) -> str:
        return "" if value is None else str(value)

    def value_width(self, value: Any) -> int:
        return self.width

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SqlType) and repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))


class IntegerType(SqlType):
    name = "INTEGER"
    width = 8
    avro_kind = "long"

    def coerce(self, value: Any) -> Optional[int]:
        if value is None:
            return None
        if isinstance(value, bool):
            raise TypeMismatchError(f"boolean {value!r} is not an INTEGER")
        if isinstance(value, int):
            out = value
        elif isinstance(value, float) and value.is_integer():
            out = int(value)
        else:
            raise TypeMismatchError(f"{value!r} is not an INTEGER")
        if not _INT64_MIN <= out <= _INT64_MAX:
            raise TypeMismatchError(f"{out} out of INTEGER range")
        return out

    def _all_valid(self, types: Set[type], values: Sequence[Any]) -> bool:
        if not types <= {int, _NONE}:  # type() is exact: bool is not int
            return False
        if _NONE in types:
            values = [value for value in values if value is not None]
        return not values or (
            _INT64_MIN <= min(values) and max(values) <= _INT64_MAX
        )

    def _parse(self, token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise TypeMismatchError(f"{token!r} is not an INTEGER") from None


class FloatType(SqlType):
    name = "FLOAT"
    width = 8
    avro_kind = "double"

    def coerce(self, value: Any) -> Optional[float]:
        if value is None:
            return None
        if isinstance(value, bool):
            raise TypeMismatchError(f"boolean {value!r} is not a FLOAT")
        if isinstance(value, (int, float)):
            return float(value)
        raise TypeMismatchError(f"{value!r} is not a FLOAT")

    def _all_valid(self, types: Set[type], values: Sequence[Any]) -> bool:
        return types <= {float, _NONE}

    def _parse(self, token: str) -> float:
        try:
            return float(token)
        except ValueError:
            raise TypeMismatchError(f"{token!r} is not a FLOAT") from None

    def to_csv(self, value: Any) -> str:
        return "" if value is None else repr(float(value))


class BooleanType(SqlType):
    name = "BOOLEAN"
    width = 1
    avro_kind = "boolean"

    _TRUE = {"true", "t", "1", "yes"}
    _FALSE = {"false", "f", "0", "no"}

    def coerce(self, value: Any) -> Optional[bool]:
        if value is None:
            return None
        if isinstance(value, bool):
            return value
        raise TypeMismatchError(f"{value!r} is not a BOOLEAN")

    def _all_valid(self, types: Set[type], values: Sequence[Any]) -> bool:
        return types <= {bool, _NONE}

    def _parse(self, token: str) -> bool:
        lowered = token.strip().lower()
        if lowered in self._TRUE:
            return True
        if lowered in self._FALSE:
            return False
        raise TypeMismatchError(f"{token!r} is not a BOOLEAN")

    def to_csv(self, value: Any) -> str:
        if value is None:
            return ""
        return "true" if value else "false"


class VarcharType(SqlType):
    avro_kind = "string"

    def __init__(self, length: int = 80):
        if length <= 0:
            raise SqlError(f"VARCHAR length must be positive: {length}")
        self.length = length

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"VARCHAR({self.length})"

    def coerce(self, value: Any) -> Optional[str]:
        if value is None:
            return None
        if not isinstance(value, str):
            raise TypeMismatchError(f"{value!r} is not a VARCHAR")
        if len(value.encode("utf-8")) > self.length:
            raise TypeMismatchError(
                f"string of {len(value)} chars exceeds {self.name}"
            )
        return value

    def _all_valid(self, types: Set[type], values: Sequence[Any]) -> bool:
        if not types <= {str, _NONE}:
            return False
        if _NONE in types:
            values = [value for value in values if value is not None]
        return not values or (
            max(map(len, map(str.encode, values))) <= self.length
        )

    def _parse(self, token: str) -> str:
        return token

    def value_width(self, value: Any) -> int:
        # VARCHARs are stored/shipped at their actual length.
        return len(value.encode("utf-8")) if isinstance(value, str) else 1


INTEGER = IntegerType()
FLOAT = FloatType()
BOOLEAN = BooleanType()


def VARCHAR(length: int = 80) -> VarcharType:
    """Construct a VARCHAR type of the given maximum byte length."""
    return VarcharType(length)


_ALIASES = {
    "INTEGER": INTEGER,
    "INT": INTEGER,
    "BIGINT": INTEGER,
    "LONG": INTEGER,
    "FLOAT": FLOAT,
    "DOUBLE": FLOAT,
    "DOUBLE PRECISION": FLOAT,
    "REAL": FLOAT,
    "BOOLEAN": BOOLEAN,
    "BOOL": BOOLEAN,
}


def parse_type(text: str) -> SqlType:
    """Parse a SQL type name, e.g. ``FLOAT`` or ``VARCHAR(200)``."""
    token = text.strip().upper()
    if token in _ALIASES:
        return _ALIASES[token]
    if token.startswith("VARCHAR"):
        rest = token[len("VARCHAR"):].strip()
        if not rest:
            return VarcharType()
        if rest.startswith("(") and rest.endswith(")"):
            try:
                return VarcharType(int(rest[1:-1]))
            except ValueError:
                raise SqlError(f"bad VARCHAR length in {text!r}") from None
    raise SqlError(f"unknown SQL type {text!r}")
