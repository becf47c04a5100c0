"""Connector option parsing and validation.

The External Data Source API passes options as a flat ``key=value`` map
(Table 1).  :class:`ConnectorOptions` validates the ones the connector
understands, mirroring the real connector's option names: ``table``,
``dbschema``, ``host``, ``user``, ``password``, ``numpartitions``, plus
this reproduction's additions (``db`` — the in-process cluster object
standing in for the host address — and ``scale_factor`` for virtual
volume).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional


class OptionsError(Exception):
    """Invalid or missing connector options."""


#: the paper chose 32 partitions for V2S as best-practice default
DEFAULT_V2S_PARTITIONS = 32
#: and 128 for S2V
DEFAULT_S2V_PARTITIONS = 128


class ConnectorOptions:
    """Validated connector options."""

    KNOWN = {
        "db", "table", "dbschema", "host", "user", "password",
        "numpartitions", "scale_factor", "failed_rows_percent_tolerance",
        "avro_codec", "prehash_partitioning", "varchar_length",
        "agg_pushdown", "resource_pool", "transport", "staging_fs",
        "staging_root",
    }

    #: transports the connector knows how to move rows over
    TRANSPORTS = ("direct", "staging")

    def __init__(self, options: Dict[str, Any], for_save: bool = False):
        unknown = set(options) - self.KNOWN
        if unknown:
            raise OptionsError(
                f"unknown connector options {sorted(unknown)}; "
                f"known: {sorted(self.KNOWN)}"
            )
        try:
            self.cluster = options["db"]
        except KeyError:
            raise OptionsError(
                "option 'db' (a SimVerticaCluster) is required"
            ) from None
        table = options.get("table")
        if not table or not isinstance(table, str):
            raise OptionsError("option 'table' (a table or view name) is required")
        schema = options.get("dbschema", "")
        self.table = f"{schema}.{table}".upper() if schema else table.upper()
        self.host = options.get("host") or self.cluster.node_names[0]
        if self.host not in self.cluster.node_names:
            raise OptionsError(
                f"host {self.host!r} is not a node of the cluster "
                f"{self.cluster.node_names}"
            )
        self.user = options.get("user", "dbadmin")
        self.password = options.get("password", "")
        default_partitions = (
            DEFAULT_S2V_PARTITIONS if for_save else DEFAULT_V2S_PARTITIONS
        )
        self.num_partitions = self._positive_int(
            options.get("numpartitions", default_partitions), "numpartitions"
        )
        self.scale_factor = self._finite_float(
            options.get("scale_factor", 1.0), "scale_factor"
        )
        if self.scale_factor <= 0:
            raise OptionsError(
                f"option 'scale_factor' must be positive: {self.scale_factor}"
            )
        tolerance = self._finite_float(
            options.get("failed_rows_percent_tolerance", 0.0),
            "failed_rows_percent_tolerance",
        )
        if not 0.0 <= tolerance <= 1.0:
            raise OptionsError(
                f"option 'failed_rows_percent_tolerance' must be in [0, 1]: "
                f"{tolerance}"
            )
        self.failed_rows_percent_tolerance = tolerance
        self.avro_codec = options.get("avro_codec", "deflate")
        self.prehash_partitioning = _as_bool(
            options.get("prehash_partitioning", False)
        )
        self.agg_pushdown = _as_bool(options.get("agg_pushdown", True))
        self.varchar_length = self._positive_int(
            options.get("varchar_length", 65000), "varchar_length"
        )
        # WLM pool every session opened by this relation/writer runs in;
        # None keeps the database default (GENERAL).
        pool = options.get("resource_pool")
        if pool is not None and (not isinstance(pool, str) or not pool.strip()):
            raise OptionsError(f"option 'resource_pool' must be a pool name: {pool!r}")
        self.resource_pool: Optional[str] = pool.strip().upper() if pool else None
        # Transport selection: "direct" streams rows over JDBC/COPY; "staging"
        # bridges them as columnar files on a distributed FS (Figure 12's
        # HDFS) with a rename-free manifest commit.
        transport = str(options.get("transport", "direct")).strip().lower()
        if transport not in self.TRANSPORTS:
            raise OptionsError(
                f"option 'transport' must be one of {self.TRANSPORTS}: "
                f"{options.get('transport')!r}"
            )
        self.transport = transport
        self.staging_fs = options.get("staging_fs")
        root = options.get("staging_root", "/staging")
        if not isinstance(root, str) or not root.startswith("/") or \
                root.endswith("/"):
            raise OptionsError(
                f"option 'staging_root' must be an absolute directory path "
                f"without a trailing slash: {root!r}"
            )
        self.staging_root = root
        if self.transport == "staging":
            if self.staging_fs is None:
                raise OptionsError(
                    "transport='staging' requires option 'staging_fs' "
                    "(a SimHdfsCluster both clusters can reach)"
                )
            if self.prehash_partitioning:
                raise OptionsError(
                    "prehash_partitioning routes rows per task connection "
                    "and cannot combine with transport='staging' (staged "
                    "loads are bulk per node, not per task)"
                )

    @staticmethod
    def _positive_int(value: Any, name: str) -> int:
        if isinstance(value, float) and not value.is_integer():
            raise OptionsError(f"option {name!r} must be an integer: {value!r}")
        try:
            out = int(value)
        except (TypeError, ValueError):
            raise OptionsError(f"option {name!r} must be an integer: {value!r}") from None
        if out <= 0:
            raise OptionsError(f"option {name!r} must be positive: {out}")
        return out

    @staticmethod
    def _finite_float(value: Any, name: str) -> float:
        try:
            out = float(value)
        except (TypeError, ValueError):
            raise OptionsError(f"option {name!r} must be a number: {value!r}") from None
        if not math.isfinite(out):
            raise OptionsError(f"option {name!r} must be finite: {value!r}")
        return out


def _as_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return value.strip().lower() in ("1", "true", "yes", "on")
    return bool(value)
