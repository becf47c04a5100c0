"""Client sessions: the JDBC-like statement interface.

A session is bound to one node (the node a Spark task connects to) and
executes SQL text.  Without an explicit BEGIN, each statement runs in its
own transaction and commits on success / rolls back on error
(autocommit); BEGIN/COMMIT/ROLLBACK give explicit control, which the S2V
protocol uses for its "write + mark done under one transaction" phases.

Every executed statement leaves its :class:`ResultSet` (with cost report)
in ``last_result``, and COPY additionally fills ``last_copy_result``.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.vertica import settings
from repro.vertica.copyload import CopyResult
from repro.vertica.engine import ResultSet
from repro.vertica.errors import TransactionError, VerticaError
from repro.vertica.sql import ast_nodes as ast
from repro.vertica.sql.parser import parse_statement
from repro.vertica.txn import ACTIVE, Transaction

#: the statement classes that are DDL: they auto-commit, run through
#: ``execute_ddl``, and the JDBC bridge charges them ``ddl_latency``
DDL_NODES = (
    ast.CreateTable,
    ast.DropTable,
    ast.RenameTable,
    ast.TruncateTable,
    ast.CreateView,
    ast.DropView,
)


class Session:
    """One client connection to one Vertica node."""

    def __init__(self,
                 database: "repro.vertica.database.VerticaDatabase",  # noqa: F821
                 node: str):
        self.database = database
        self.node = node
        self._txn: Optional[Transaction] = None
        self._explicit = False
        self._closed = False
        #: every ``SET``-able value of this connection (see ``settings``)
        self.context = settings.defaults(database)
        self.last_result: Optional[ResultSet] = None
        self.last_copy_result: Optional[CopyResult] = None

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        if self._txn is not None and self._txn.status == ACTIVE:
            self._txn.abort()
        self._txn = None
        self._closed = True
        self.database._release_connection(self.node)

    def reset(self) -> None:
        """Return the session to its just-connected state (pool checkin).

        Aborts any open transaction and restores every setting to its
        default, so a pooled session handed to the next tenant carries
        no state from the previous one.
        """
        self._require_open()
        if self._txn is not None and self._txn.status == ACTIVE:
            self._txn.abort()
        self._txn = None
        self._explicit = False
        self.context = settings.defaults(self.database)
        self.last_result = None
        self.last_copy_result = None

    def set_option(self, name: str, value: Any) -> None:
        """``SET name = value`` for this connection only."""
        self.context = settings.with_setting(
            self.context, self.database.catalog, name, value
        )

    @property
    def resource_pool(self) -> str:
        """The WLM pool this session's statements admit through."""
        return self.context.resource_pool

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def in_transaction(self) -> bool:
        return self._explicit and self._txn is not None and self._txn.status == ACTIVE

    def _require_open(self) -> None:
        if self._closed:
            raise TransactionError("session is closed")

    def _current_txn(self) -> Transaction:
        if self._txn is None or self._txn.status != ACTIVE:
            self._txn = self.database.begin()
        return self._txn

    # -- execution ------------------------------------------------------------
    def prepare(self, sql: str) -> ast.Statement:
        """The parsed statement for ``sql``, through the parse cache.

        The text is lexed once; a repeated statement skips the parser,
        and the AST comes back stamped with the canonical key the plan
        and result tiers share.
        """
        self._require_open()
        return self.database.plan_cache.parse(sql, parse_statement)

    def execute(
        self,
        sql: Union[str, ast.Statement],
        copy_data: Union[bytes, str, None] = None,
    ) -> ResultSet:
        """Run one statement — SQL text, or what :meth:`prepare` returned
        for it (the JDBC bridge classifies the parse before it runs it)."""
        self._require_open()
        statement = self.prepare(sql) if isinstance(sql, str) else sql

        if isinstance(statement, ast.BeginTransaction):
            if self.in_transaction:
                raise TransactionError("transaction already in progress")
            self._txn = self.database.begin()
            self._explicit = True
            self.last_result = ResultSet()
            return self.last_result
        if isinstance(statement, ast.CommitTransaction):
            self._finish(commit=True)
            self.last_result = ResultSet()
            return self.last_result
        if isinstance(statement, ast.RollbackTransaction):
            self._finish(commit=False)
            self.last_result = ResultSet()
            return self.last_result
        if isinstance(statement, ast.SetOption):
            self.set_option(statement.name, statement.value)
            self.last_result = ResultSet()
            return self.last_result

        if isinstance(statement, DDL_NODES):
            # DDL auto-commits any open transaction, as in Vertica.
            if self.in_transaction:
                self._finish(commit=True)
            count = self.database.execute_ddl(statement)
            self.last_result = ResultSet(rowcount=count)
            return self.last_result

        txn = self._current_txn()
        try:
            result, copy_result = self.database.engine.execute(
                statement,
                txn,
                self.node,
                self.context,
                copy_data=copy_data,
            )
            if copy_result is not None:
                self.last_copy_result = copy_result
        except VerticaError:
            if not self._explicit:
                if self._txn is not None and self._txn.status == ACTIVE:
                    self._txn.abort()
                self._txn = None
            raise
        if not self._explicit:
            self._finish(commit=True)
        self.last_result = result
        return result

    def _finish(self, commit: bool) -> None:
        txn = self._txn
        self._txn = None
        self._explicit = False
        if txn is None or txn.status != ACTIVE:
            if commit and txn is None:
                return  # COMMIT with no open transaction is a no-op
            return
        if commit:
            txn.commit(self.database.storage)
        else:
            txn.abort()

    # -- convenience ---------------------------------------------------------------
    def scalar(self, sql: str) -> Any:
        return self.execute(sql).scalar()

    def commit(self) -> None:
        self._require_open()
        self._finish(commit=True)
