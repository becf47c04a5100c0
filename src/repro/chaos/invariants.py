"""Post-run invariant auditing: did the protocol survive the chaos?

After any chaosed run the checker audits what the paper's protocols
guarantee *regardless* of faults:

- **S2V exactly-once** (§3.2.1): if ``S2V_JOB_STATUS`` says SUCCESS, the
  target table holds exactly one copy of the source multiset (appended to
  the prior contents in append mode); any other status means the save
  raised and the target is untouched.  The status table is the arbiter —
  it must never disagree with the data.
- **No leaked state**: per-job temporary tables are gone after the driver
  survived (success or failure), no transaction still holds a table lock,
  every client session was returned (sessions parked idle in a
  client-side :class:`~repro.wlm.sessionpool.SessionPool` are baselined,
  not leaks), and — on WLM runs — no resource pool still holds admission
  slots or memory.
- **V2S snapshot isolation** (§3.1.2): the rows a scan produced equal an
  ``AT EPOCH`` re-read of its pinned epoch — one consistent snapshot,
  even though tasks ran (and re-ran) while writers advanced the epoch.

Checks read the database substrate directly through short-lived sessions
(no simulated cost), so auditing perturbs nothing.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

#: table-name suffixes of S2V per-job temporary state
TEMP_SUFFIXES = ("_STAGING", "_TASK_STATUS", "_LAST_COMMITTER")


class InvariantViolation:
    """One broken invariant."""

    def __init__(self, name: str, detail: str):
        self.name = name
        self.detail = detail

    def __repr__(self) -> str:
        return f"{self.name}: {self.detail}"


class InvariantReport:
    """The outcome of one audit: which checks ran, what broke."""

    def __init__(self, title: str = "invariants"):
        self.title = title
        self.checks: List[str] = []
        self.violations: List[InvariantViolation] = []
        #: observations worth surfacing that do not break an invariant
        #: (e.g. swallowed S2V cleanup errors) — reported, never fatal
        self.warnings: List[InvariantViolation] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def passed(self, check: str) -> None:
        self.checks.append(check)

    def violated(self, name: str, detail: str) -> None:
        self.checks.append(name)
        self.violations.append(InvariantViolation(name, detail))

    def expect(self, name: str, ok: bool, detail: str) -> None:
        """Record ``name`` as passed when ``ok``, else violated with ``detail``."""
        if ok:
            self.passed(name)
        else:
            self.violated(name, detail)

    def warn(self, name: str, detail: str) -> None:
        self.checks.append(name)
        self.warnings.append(InvariantViolation(name, detail))

    def merge(self, other: "InvariantReport") -> "InvariantReport":
        self.checks.extend(other.checks)
        self.violations.extend(other.violations)
        self.warnings.extend(other.warnings)
        return self

    def describe(self) -> str:
        lines = [f"{self.title}: {'OK' if self.ok else 'VIOLATED'} "
                 f"({len(self.checks)} checks"
                 + (f", {len(self.warnings)} warnings" if self.warnings else "")
                 + ")"]
        for violation in self.violations:
            lines.append(f"  FAIL {violation}")
        for warning in self.warnings:
            lines.append(f"  WARN {warning}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return self.describe()


def _multiset(rows: Sequence[Sequence[Any]]) -> List[Tuple[Any, ...]]:
    return sorted(tuple(row) for row in rows)


def stored_hash_violations(db, txns: Sequence[Any] = ()) -> List[str]:
    """Rows of segmented tables whose stored hash or home node is wrong.

    A ranged scan answers ``HASH(seg) >= lo AND HASH(seg) < hi`` from
    ``row_hashes`` alone and nobody re-evaluates the conjuncts, so for
    every row of every ROS container, k-safety replica container and —
    for the open transactions in ``txns`` — WOS buffer, ``row_hashes[i]``
    must be ``vertica_hash`` of the row's segmentation values, and the
    row must sit on ``ring.node_for`` of it (a replica: on that node's
    buddy).  Returns one line per offending store, empty when all hold.
    """
    from repro.vertica.hashring import vertica_hash

    out: List[str] = []
    for table in db.catalog.tables.values():
        if table.unsegmented:
            continue
        names = table.column_names()
        slots = [names.index(c) for c in table.segmentation_columns]
        node_for = table.ring.node_for
        stores = []  # (where, holds replicas?, node, container or buffer)
        for node in db.node_names:
            storage = db.storage[node]
            for held in storage.table_containers(table.name):
                stores.append(("ROS", False, node, held))
            for held in storage.replica_containers(table.name):
                stores.append(("replica ROS", True, node, held))
        for txn in txns:
            for (name, node), held in txn.wos.items():
                if name == table.name:
                    stores.append(("WOS", False, node, held))
            for (name, node), held in txn.replica_wos.items():
                if name == table.name:
                    stores.append(("replica WOS", True, node, held))
        for where, replica, node, held in stores:
            keys = zip(*(held.columns[slot] for slot in slots))
            bad = 0
            for key, stored in zip(keys, held.row_hashes):
                home = node_for(stored)
                if stored != vertica_hash(*key) or node != (
                    db.buddy_of(home) if replica else home
                ):
                    bad += 1
            if bad:
                out.append(
                    f"{table.name} {where} on {node}: {bad} of {held.nrows} "
                    f"rows mis-hashed or misplaced"
                )
    return out


class InvariantChecker:
    """Audits one database after a (possibly chaosed) run.

    Construct it *before* the run so it can baseline per-node session
    counts; sessions the workload opens and fails to close then show up
    as leaks.
    """

    def __init__(self, vertica):
        self.db = vertica.db if hasattr(vertica, "db") else vertica
        self.cluster = vertica if hasattr(vertica, "db") else None
        self._baseline_sessions = {
            node: self.db.session_count(node) for node in self.db.node_names
        }
        # Idle sessions parked in a client-side pool are open on purpose;
        # baseline them so pooled runs aren't flagged as leaking.
        self._baseline_idle = {
            node: self._pool_idle(node) for node in self.db.node_names
        }

    def _pool_idle(self, node: str) -> int:
        pool = getattr(self.cluster, "session_pool", None)
        return pool.idle_count(node) if pool is not None else 0

    # -- primitives ----------------------------------------------------------
    def _session(self):
        return self.db.connect(failover=True)

    def _table_exists(self, name: str) -> bool:
        return self.db.catalog.has_table(name)

    def _rows_of(self, table: str) -> List[Tuple[Any, ...]]:
        session = self._session()
        try:
            return _multiset(session.execute(f"SELECT * FROM {table}").rows)
        finally:
            session.close()

    def _job_status(self, job_name: str) -> Optional[str]:
        from repro.connector.s2v import FINAL_STATUS_TABLE

        if not self._table_exists(FINAL_STATUS_TABLE):
            return None
        session = self._session()
        try:
            result = session.execute(
                f"SELECT status FROM {FINAL_STATUS_TABLE} "
                f"WHERE job_name = '{job_name}'"
            )
            return str(result.rows[0][0]) if result.rows else None
        finally:
            session.close()

    # -- S2V ------------------------------------------------------------------
    def check_s2v_save(
        self,
        job_name: str,
        target: str,
        expected_rows: Sequence[Sequence[Any]],
        mode: str = "overwrite",
        prior_rows: Sequence[Sequence[Any]] = (),
        raised: Optional[BaseException] = None,
        check_leaks: bool = True,
    ) -> InvariantReport:
        """Audit one save: status arbiter, exactly-once data, no leaks.

        ``expected_rows`` is the source DataFrame's rows; ``prior_rows``
        the target's contents before the save (empty for a fresh table);
        ``raised`` whatever exception ``save()`` surfaced (None on
        success).
        """
        report = InvariantReport(f"s2v:{job_name}")
        status = self._job_status(job_name)
        expected = _multiset(expected_rows)
        prior = _multiset(prior_rows)
        final_expected = prior + expected if mode == "append" else expected

        if raised is None and status != "SUCCESS":
            report.violated(
                "status-reflects-reality",
                f"save() returned normally but status is {status!r}",
            )
        else:
            report.passed("status-reflects-reality")

        if status == "SUCCESS":
            if not self._table_exists(target):
                report.violated(
                    "exactly-once",
                    f"status SUCCESS but target {target!r} does not exist",
                )
            else:
                actual = self._rows_of(target)
                if actual == _multiset(final_expected):
                    report.passed("exactly-once")
                else:
                    report.violated(
                        "exactly-once",
                        f"target {target!r} holds {len(actual)} rows, "
                        f"expected {len(final_expected)} "
                        f"(mode={mode}, status=SUCCESS)",
                    )
        else:
            # IN_PROGRESS / FAILURE / no record: the save must have raised
            # and the target must be exactly what it was before.
            if raised is None:
                report.violated(
                    "failed-save-raises",
                    f"status {status!r} yet save() did not raise",
                )
            else:
                report.passed("failed-save-raises")
            if prior:
                actual = (
                    self._rows_of(target) if self._table_exists(target) else None
                )
                if actual == prior:
                    report.passed("target-untouched")
                else:
                    report.violated(
                        "target-untouched",
                        f"failed save modified target {target!r}: "
                        f"{len(prior)} rows before, "
                        f"{'missing' if actual is None else len(actual)} after",
                    )
            elif self._table_exists(target) and self._rows_of(target):
                report.violated(
                    "target-untouched",
                    f"failed save left rows in previously absent/empty "
                    f"target {target!r}",
                )
            else:
                report.passed("target-untouched")

        leftovers = [
            job_name + suffix
            for suffix in TEMP_SUFFIXES
            if self._table_exists(job_name + suffix)
        ]
        if leftovers:
            report.violated(
                "temp-tables-dropped",
                f"per-job tables leaked: {', '.join(leftovers)}",
            )
        else:
            report.passed("temp-tables-dropped")

        if check_leaks:
            report.merge(self.check_no_leaks())
        return report

    # -- V2S ------------------------------------------------------------------
    def check_v2s_scan(
        self,
        table: str,
        epoch: int,
        rows: Sequence[Sequence[Any]],
        columns: Optional[Sequence[str]] = None,
        check_leaks: bool = True,
    ) -> InvariantReport:
        """The scan's output must equal one ``AT EPOCH`` snapshot."""
        report = InvariantReport(f"v2s:{table}@{epoch}")
        selection = ", ".join(columns) if columns else "*"
        session = self._session()
        try:
            snapshot = _multiset(
                session.execute(
                    f"AT EPOCH {epoch} SELECT {selection} FROM {table}"
                ).rows
            )
        finally:
            session.close()
        actual = _multiset(rows)
        if actual == snapshot:
            report.passed("epoch-snapshot")
        else:
            report.violated(
                "epoch-snapshot",
                f"scan produced {len(actual)} rows but epoch {epoch} "
                f"snapshot of {table!r} holds {len(snapshot)}",
            )
        if check_leaks:
            report.merge(self.check_no_leaks())
        return report

    # -- result cache -----------------------------------------------------------
    def check_no_stale_reads(
        self,
        observations: Sequence[Tuple[str, int, Sequence[Sequence[Any]]]],
    ) -> InvariantReport:
        """Every (possibly cached) answer must equal its uncached replay.

        ``observations`` is one ``(sql, snapshot_epoch, rows)`` triple per
        read the workload recorded.  Each is replayed ``AT EPOCH`` on a
        fresh session with ``SET RESULT_CACHE = 'off'``; an answer that
        differs from its cold replay is a **stale read** — the one thing
        the (digest, epoch, catalog version) cache key is meant to make
        structurally impossible.  Reads whose epoch has since been merged
        out below the Ancient History Mark can no longer be replayed and
        surface as warnings, never violations.
        """
        from repro.vertica.errors import TransactionError

        report = InvariantReport("cache-coherence")
        stale = 0
        unreplayable = 0
        for index, (sql, epoch, rows) in enumerate(observations):
            session = self._session()
            try:
                session.execute("SET RESULT_CACHE = 'off'")
                replay = session.execute(f"AT EPOCH {epoch} {sql}")
            except TransactionError:
                unreplayable += 1
                continue
            finally:
                session.close()
            if _multiset(rows) != _multiset(replay.rows):
                stale += 1
                if stale <= 3:  # cap the detail, never the count
                    report.violated(
                        "no-stale-reads",
                        f"observation {index} at epoch {epoch} returned "
                        f"{len(rows)} row(s) differing from its uncached "
                        f"replay ({len(replay.rows)} row(s)): {sql!r}",
                    )
        if stale > 3:
            report.violated(
                "no-stale-reads",
                f"{stale} of {len(observations)} observations were stale "
                f"(first 3 detailed above)",
            )
        if not stale:
            report.passed("no-stale-reads")
        if unreplayable:
            report.warn(
                "stale-read-replays-skipped",
                f"{unreplayable} observation(s) pinned epochs now below "
                f"the AHM and could not be replayed",
            )
        return report

    # -- staging transport ------------------------------------------------------
    def check_no_orphaned_staging(self, hdfs,
                                  prefix: str = "/staging") -> InvariantReport:
        """No staging files may outlive their job on the distributed FS.

        The rename-free commit protocol writes attempt files and a
        ``_MANIFEST`` under ``<staging_root>/<job>/``; cleanup must sweep
        the whole job directory whether the save committed or failed.
        Anything still listed under ``prefix`` after the run — loser
        attempts, partial writes, stale manifests — is leaked storage the
        next job can never reclaim.
        """
        report = InvariantReport("staging")
        leftovers = sorted(hdfs.fs.list(prefix.rstrip("/") + "/"))
        if leftovers:
            shown = ", ".join(leftovers[:5])
            if len(leftovers) > 5:
                shown += f", ... ({len(leftovers)} total)"
            report.violated(
                "no-orphaned-staging-files",
                f"files left under {prefix!r} after run: {shown}",
            )
        else:
            report.passed("no-orphaned-staging-files")
        return report

    # -- swallowed teardown errors ------------------------------------------------
    def check_cleanup_failures(self) -> InvariantReport:
        """Surface S2V cleanup errors the connector deliberately swallowed.

        ``_safe_cleanup`` never lets a teardown error mask the save's real
        outcome — it increments ``s2v.cleanup_failures`` and moves on.  A
        nonzero counter is not an invariant violation (the leak checks
        above catch any state it stranded), but it must be *visible*, so
        it surfaces as a warning in every audit instead of rotting in an
        unread counter.
        """
        from repro import telemetry

        report = InvariantReport("cleanup")
        count = int(telemetry.counter("s2v.cleanup_failures").value)
        if count:
            report.warn(
                "cleanup-failures-surfaced",
                f"{count} S2V cleanup error(s) were swallowed during "
                f"teardown (s2v.cleanup_failures counter)",
            )
        else:
            report.passed("cleanup-failures-surfaced")
        return report

    # -- storage ----------------------------------------------------------------
    def check_stored_hashes(self) -> InvariantReport:
        """Every stored segmentation hash is its row's, on the right node."""
        report = InvariantReport("storage")
        bad = stored_hash_violations(self.db)
        report.expect("stored-hashes-match-rows", not bad, "; ".join(bad[:5]))
        return report

    # -- global hygiene ---------------------------------------------------------
    def check_no_leaks(self) -> InvariantReport:
        """No held locks, no stranded sessions, all nodes recovered."""
        report = InvariantReport("leaks")
        held = self.db.locks.held_tables()
        if held:
            report.violated(
                "no-leaked-locks",
                f"locks still held after run: {held}",
            )
        else:
            report.passed("no-leaked-locks")
        stranded = {}
        for node, baseline in self._baseline_sessions.items():
            delta = self.db.session_count(node) - baseline
            # sessions the client pool is deliberately holding idle
            delta -= self._pool_idle(node) - self._baseline_idle.get(node, 0)
            if delta:
                stranded[node] = delta
        if stranded:
            report.violated(
                "no-leaked-sessions",
                f"session count deltas vs baseline: {stranded}",
            )
        else:
            report.passed("no-leaked-sessions")
        down = [
            node for node, state in self.db.node_states.items()
            if state != "UP"
        ]
        if down:
            report.violated(
                "nodes-recovered",
                f"nodes still DOWN after run: {down}",
            )
        else:
            report.passed("nodes-recovered")
        wlm = getattr(self.cluster, "wlm", None)
        if wlm is not None:
            # The check only exists on WLM runs, so non-WLM audits keep
            # their historical check counts.
            leaked = wlm.leaked()
            if leaked:
                report.violated(
                    "no-leaked-pool-slots",
                    f"resource pools still busy after run: {leaked}",
                )
            else:
                report.passed("no-leaked-pool-slots")
        return report
