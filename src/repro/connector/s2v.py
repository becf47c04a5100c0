"""S2V: saving Spark DataFrames to Vertica with exactly-once semantics (§3.2).

Vertica itself is the durable coordination log.  Setup creates three
temporary tables and one permanent table:

- ``<job>_STAGING`` — same schema as the target; all task data lands here;
- ``<job>_TASK_STATUS`` — one row per task: id, rows inserted/failed, done;
- ``<job>_LAST_COMMITTER`` — single row for the leader-election race;
- ``S2V_JOB_STATUS`` — permanent record of every job's final outcome,
  consultable even after total Spark failure.

Each task then runs the five phases of Figure 5:

1. *(one transaction)* if its status row is still not-done: stream its
   partition as Avro through COPY into the staging table, then
   conditionally ``UPDATE ... SET done = TRUE WHERE task_id = i AND done
   = FALSE`` — committing only if the update hit, else aborting.  A
   restarted or duplicated task finds ``done = TRUE`` and skips the
   write, so data is staged exactly once.
2. read the status table; unless *all* tasks are done, terminate.
3. race to ``UPDATE <job>_LAST_COMMITTER SET task_id = i WHERE task_id IS
   NULL``: exactly one task's update succeeds (durable leader election).
4. read back the winner; losers terminate.
5. the winner checks the rejected-row tolerance and commits the staging
   table into the target — an atomic rename for overwrite, one
   transactional ``INSERT ... SELECT`` for append — guarded by a
   conditional update of ``S2V_JOB_STATUS`` so even a speculative
   duplicate of the winner finalises only once.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro import telemetry
from repro.avrolite import encode_rows
from repro.connector import staging as stg
from repro.connector.options import ConnectorOptions
from repro.hdfs.columnar import write_columnar
from repro.spark.errors import SparkError
from repro.vertica.errors import VerticaError

#: the permanent record of all S2V jobs (never dropped)
FINAL_STATUS_TABLE = "S2V_JOB_STATUS"
#: rows per Avro container chunk a task alternates encode/send over
COPY_CHUNK_ROWS = 2048
#: effectively-unlimited per-chunk REJECTMAX; tolerance is job-level
CHUNK_REJECT_MAX = 1 << 31


class S2VError(VerticaError):
    """S2V job-level failure (e.g. rejected rows above tolerance)."""


class S2VResult:
    """Outcome of one S2V save."""

    def __init__(self, job_name: str, rows_loaded: int, rows_rejected: int,
                 failed_percent: float, status: str):
        self.job_name = job_name
        self.rows_loaded = rows_loaded
        self.rows_rejected = rows_rejected
        self.failed_percent = failed_percent
        self.status = status

    def __repr__(self) -> str:
        return (
            f"S2VResult({self.job_name!r}, loaded={self.rows_loaded}, "
            f"rejected={self.rows_rejected}, status={self.status!r})"
        )


class _DriverContext:
    """Stands in for a TaskContext when the driver runs commit phases.

    The driver is not a task: it cannot be chaos-killed at probes and has
    no attempt identity, so probes are no-ops.
    """

    node = None
    attempt_number = 0

    def probe(self, label: str) -> None:
        return None


class S2VWriter:
    """One save invocation (one Spark job)."""

    def __init__(self, spark, mode: str, options: Dict[str, Any], dataframe):
        self.spark = spark
        self.mode = mode
        self.dataframe = dataframe
        self.opts = ConnectorOptions(options, for_save=True)
        self.cluster = self.opts.cluster
        self.job_name = f"S2V_JOB_{next(self.cluster.job_ids)}"
        self.target = self.opts.table
        self.staging = f"{self.job_name}_STAGING"
        self.status_table = f"{self.job_name}_TASK_STATUS"
        self.committer_table = f"{self.job_name}_LAST_COMMITTER"
        self.nodes: List[str] = []
        self.avro_schema = dataframe.schema.to_avro("s2v_row")
        self._skipped = False
        #: the last teardown error _safe_cleanup swallowed (None if clean)
        self.cleanup_failure: Optional[BaseException] = None
        #: plan used when prehash_partitioning is on: task -> node
        self._prehash_ring = None
        #: staging transport: tasks write columnar attempt files to a
        #: distributed FS; the driver bulk-COPYs the manifest's winners
        self.staged = self.opts.transport == "staging"
        self.hdfs = self.opts.staging_fs
        #: size of an empty file of the transport's format, measured once
        #: per job (it depends on the schema alone): the part of a payload
        #: VerticaCostModel.virtual_bytes does not scale
        self._header_bytes = len(
            write_columnar(self.avro_schema, []) if self.staged
            else encode_rows(self.avro_schema, [], codec=self.opts.avro_codec)
        )
        #: shared by every task's staged write: balances block placement
        #: across datanodes (see staging.write_staged_file)
        self._staging_write_load: Dict[str, float] = {}

    # ------------------------------------------------------------------- save
    def save(self) -> Optional[S2VResult]:
        """Run setup, the task job, and finalisation; returns the result.

        ``None`` is returned only for mode=ignore on an existing table.
        """
        return self.cluster.run(self.save_process(), name=f"{self.job_name}.save")

    def save_process(self) -> Generator:
        """The whole save as one driver-side generator.

        ``save()`` runs it to completion on an otherwise idle clock; a
        multi-tenant workload instead embeds it in its own process
        (``yield from writer.save_process()``) so many saves — and their
        WLM admission waits — interleave on one simulation clock.
        """
        try:
            yield from self._setup()
        except (VerticaError, SparkError):
            # Narrowed to the errors setup can legitimately raise (catalog
            # conflicts, lock contention, admission timeouts, fabric
            # faults).  A programming error — e.g. a TypeError in option
            # validation — must propagate with its original traceback, not
            # run teardown paths that mask it in chaos logs.
            yield from self._safe_cleanup(None)
            raise
        if self._skipped:
            return None
        rdd, num_tasks = self._partitioned_rdd()
        thunks = [self._make_task(rdd, i) for i in range(num_tasks)]
        job = self.spark.scheduler.submit(thunks, name=self.job_name)
        try:
            yield job.done
        except SparkError:
            # The job died but the driver is still alive: reconcile and drop
            # the per-job temporary tables.  The final status table keeps the
            # job's record (IN_PROGRESS, unless a committer was entitled
            # first) for the user to consult — only a *total* Spark failure
            # (driver death) leaves temp tables behind, and those are cleaned
            # out-of-band via :mod:`repro.connector.jobs`.
            yield from self._safe_cleanup(job)
            raise
        try:
            return (yield from self._finalize(job))
        except Exception:
            yield from self._safe_cleanup(job)
            raise

    # ------------------------------------------------------------- failure path
    def _safe_cleanup(self, job) -> Generator:
        """Best-effort, idempotent teardown after a failed save.

        Never raises — the original failure is what the caller must see.
        Anything this could not drop remains discoverable (and cleanable)
        through :mod:`repro.connector.jobs`.
        """
        try:
            yield from self._cleanup(job)
        except Exception as exc:
            # Swallowed, but never invisible: the counter feeds the
            # chaos-soak summaries and InvariantChecker warnings, and the
            # last error is kept on the writer for post-mortems.
            telemetry.counter("s2v.cleanup_failures").inc()
            self.cleanup_failure = exc

    def _cleanup(self, job) -> Generator:
        yield from self._quiesce(job)
        with self._driver_connection() as conn:
            job_recorded = yield from self._table_exists(conn, FINAL_STATUS_TABLE)
            yield from self._finish_entitled_rename(conn, job_recorded)
            yield from self._drop_temp_tables(conn)
        if self.staged and self.hdfs is not None:
            # A failed staged job's attempt files and manifest are all
            # garbage — sweep the whole job directory (pure metadata ops).
            stg.sweep_job_dir(self.hdfs, self.opts.staging_root, self.job_name)

    # ------------------------------------------------- driver-side shared steps
    def _driver_connection(self, node: Optional[str] = None):
        return self.cluster.connect(
            node or self.opts.host, client_node=None,
            resource_pool=self.opts.resource_pool,
        )

    def _table_exists(self, conn, table: str) -> Generator:
        result = yield from conn.execute(
            f"SELECT COUNT(*) FROM v_catalog.tables WHERE table_name = '{table}'"
        )
        return result.scalar() > 0

    def _quiesce(self, job) -> Generator:
        """Wait out zombie attempts (speculative duplicates still running
        their harmless phases), so the driver's reconciliation never races
        an in-flight entitled committer."""
        if job is not None:
            while any(task.live_attempts for task in job.tasks):
                yield self.cluster.env.timeout(0.05)

    def _finish_entitled_rename(self, conn, job_recorded: bool = True) -> Generator:
        """Complete an overwrite whose entitled committer died mid-commit.

        The committer flips the job to SUCCESS *before* the rename; if it
        crashed in between, the staging table is the durable evidence (and
        the only copy of the data), so the driver completes the rename
        rather than dropping it.  ``job_recorded`` is false when setup died
        before the final-status table existed.
        """
        status = None
        if job_recorded:
            result = yield from conn.execute(
                f"SELECT status FROM {FINAL_STATUS_TABLE} "
                f"WHERE job_name = '{self.job_name}'"
            )
            status = result.rows[0][0] if result.rows else None
        staging_left = yield from self._table_exists(conn, self.staging)
        if status == "SUCCESS" and self.mode != "append" and staging_left:
            yield from conn.execute_with_retry(
                f"DROP TABLE IF EXISTS {self.target}"
            )
            yield from conn.execute_with_retry(
                f"ALTER TABLE {self.staging} RENAME TO {self.target}"
            )

    def _drop_temp_tables(self, conn) -> Generator:
        # Retried drops: a zombie duplicate may still hold insert locks.
        # The final status table stays.
        for table in (self.status_table, self.committer_table, self.staging):
            yield from conn.execute_with_retry(f"DROP TABLE IF EXISTS {table}")

    def _status_totals(self, conn) -> Generator:
        result = yield from conn.execute(
            f"SELECT SUM(rows_inserted), SUM(rows_failed) FROM {self.status_table}"
        )
        inserted, rejected = result.rows[0]
        return int(inserted or 0), int(rejected or 0)

    def _arbiter_sql(self, status: str, failed_percent: float) -> str:
        """The conditional final-status update: exactly one attempt ever
        moves the job out of IN_PROGRESS, whatever else races it."""
        return (
            f"UPDATE {FINAL_STATUS_TABLE} SET status = '{status}', "
            f"failed_percent = {failed_percent} "
            f"WHERE job_name = '{self.job_name}' AND status = 'IN_PROGRESS'"
        )

    def _commit(self, ctx, conn, loaded: int, rejected: int) -> Generator:
        """Apply the job-level rejected-row tolerance, then publish."""
        total = loaded + rejected
        failed_percent = (rejected / total) if total else 0.0
        if failed_percent > self.opts.failed_rows_percent_tolerance:
            yield from conn.execute_with_retry(
                self._arbiter_sql("FAILURE", failed_percent)
            )
            raise S2VError(
                f"{self.job_name}: rejected fraction {failed_percent:.4f} "
                f"exceeds tolerance {self.opts.failed_rows_percent_tolerance}"
            )
        if self.mode == "append":
            yield from self._commit_append(ctx, conn, failed_percent)
        else:
            yield from self._commit_overwrite(ctx, conn, failed_percent)

    def _conclude(self, conn, loaded: int, rejected: int) -> Generator:
        """Read the job's recorded outcome, drop its temporary tables."""
        result = yield from conn.execute(
            f"SELECT status, failed_percent FROM {FINAL_STATUS_TABLE} "
            f"WHERE job_name = '{self.job_name}'"
        )
        status, failed_percent = result.rows[0]
        yield from self._drop_temp_tables(conn)
        return S2VResult(
            self.job_name, loaded, rejected, float(failed_percent or 0.0), status
        )

    # -------------------------------------------------------------- setup phase
    def _setup(self) -> Generator:
        with self._driver_connection() as conn:
            result = yield from conn.execute(
                "SELECT node_name FROM v_catalog.nodes ORDER BY node_name"
            )
            self.nodes = [row[0] for row in result.rows]
            target_exists = yield from self._table_exists(conn, self.target)
            if self.mode == "errorifexists" and target_exists:
                raise S2VError(f"table {self.target!r} already exists")
            if self.mode == "ignore" and target_exists:
                self._skipped = True
                return
            if self.mode == "append" and not target_exists:
                raise S2VError(
                    f"append mode requires existing table {self.target!r}"
                )
            segmented_by = [self.dataframe.schema.fields[0].name]
            yield from conn.execute(
                self.dataframe.schema.create_table_sql(
                    self.staging,
                    segmented_by=segmented_by,
                    varchar_length=self.opts.varchar_length,
                )
            )
            # In staging mode the status row also records which attempt file
            # won — the Stocator-style commit record the manifest is built
            # from (added only when staged, so direct-mode runs keep their
            # exact statement sequence).
            file_column = ", file VARCHAR(500)" if self.staged else ""
            yield from conn.execute(
                f"CREATE TABLE {self.status_table} (task_id INTEGER, "
                "rows_inserted INTEGER, rows_failed INTEGER, done BOOLEAN"
                f"{file_column}) UNSEGMENTED ALL NODES"
            )
            row_tail = ", NULL" if self.staged else ""
            values = ", ".join(
                f"({i}, 0, 0, FALSE{row_tail})" for i in range(self.opts.num_partitions)
            )
            yield from conn.execute_with_retry(
                f"INSERT INTO {self.status_table} VALUES {values}"
            )
            yield from conn.execute(
                f"CREATE TABLE {self.committer_table} (task_id INTEGER) "
                "UNSEGMENTED ALL NODES"
            )
            yield from conn.execute_with_retry(
                f"INSERT INTO {self.committer_table} VALUES (NULL)"
            )
            yield from conn.execute(
                f"CREATE TABLE IF NOT EXISTS {FINAL_STATUS_TABLE} "
                "(job_name VARCHAR(200), failed_percent FLOAT, "
                "status VARCHAR(20)) UNSEGMENTED ALL NODES"
            )
            # Retried: the shared final-status table is a contention point
            # (every concurrent job and any chaos lock storm hits it).
            yield from conn.execute_with_retry(
                f"INSERT INTO {FINAL_STATUS_TABLE} VALUES "
                f"('{self.job_name}', 0.0, 'IN_PROGRESS')"
            )
            if self.opts.prehash_partitioning:
                from repro.vertica.hashring import HashRing, Segment

                result = yield from conn.execute(
                    "SELECT segment_lower_bound, segment_upper_bound, node_name "
                    f"FROM v_catalog.segments WHERE table_name = '{self.staging}' "
                    "ORDER BY segment_lower_bound"
                )
                self._prehash_ring = HashRing(
                    [Segment(lo, hi, node) for lo, hi, node in result.rows]
                )

    def _partitioned_rdd(self):
        """Repartition the DataFrame to the requested task count (§3.2).

        With ``prehash_partitioning`` (the paper's §5 future-work
        optimisation, implemented here as an option) rows are routed so
        each task holds only rows whose staging segment lives on the node
        that task will connect to — eliminating Vertica-internal traffic.
        """
        num = self.opts.num_partitions
        if self.opts.prehash_partitioning and self._prehash_ring is not None:
            from repro.vertica.hashring import vertica_hash

            ring = self._prehash_ring
            plan = ring.partition_plan(num)
            self._prehash_plan = plan

            def destination(row) -> int:
                # the staging table is segmented by the first column
                value_hash = vertica_hash(row[0])
                for task_index, ranges in enumerate(plan):
                    for lo, hi, __ in ranges:
                        if lo <= value_hash < hi:
                            return task_index
                return value_hash % num  # pragma: no cover - plan tiles space

            rdd = self.dataframe.rdd().partition_by(num, key_fn=destination)
            return rdd, num
        return self.dataframe.rdd().repartition(num), num

    def _task_node(self, task_index: int) -> str:
        if self.opts.prehash_partitioning and self._prehash_ring is not None:
            ranges = self._prehash_plan[task_index]
            if ranges:
                return ranges[0][2]
        return self.nodes[task_index % len(self.nodes)]

    # --------------------------------------------------------------- task phases
    def _make_task(self, rdd, task_index: int):
        def thunk(ctx) -> Generator:
            rows = yield from rdd.compute(task_index, ctx)
            yield from self._run_phases(ctx, task_index, list(rows))
            return task_index

        return thunk

    def _run_phases(self, ctx, task_index: int, rows: List[Tuple]) -> Generator:
        with self.cluster.connect(
            self._task_node(task_index), client_node=ctx.node,
            resource_pool=self.opts.resource_pool,
        ) as conn:
            with telemetry.span("s2v.phase1", task=task_index,
                                attempt=ctx.attempt_number):
                if self.staged:
                    yield from self._phase1_staged(ctx, conn, task_index, rows)
                else:
                    yield from self._phase1(ctx, conn, task_index, rows)
            ctx.probe("s2v:after_phase1")
            with telemetry.span("s2v.phase2", task=task_index):
                all_done = yield from self._phase2(ctx, conn)
            if not all_done:
                return
            ctx.probe("s2v:after_phase2")
            with telemetry.span("s2v.phase3", task=task_index):
                yield from self._phase3(ctx, conn, task_index)
            ctx.probe("s2v:after_phase3")
            with telemetry.span("s2v.phase4", task=task_index):
                is_winner = yield from self._phase4(ctx, conn, task_index)
            if not is_winner:
                return
            ctx.probe("s2v:after_phase4")
            with telemetry.span("s2v.phase5", task=task_index):
                yield from self._phase5(ctx, conn)

    def _task_done(self, conn, task_index: int) -> Generator:
        result = yield from conn.execute(
            f"SELECT done FROM {self.status_table} WHERE task_id = {task_index}"
        )
        return result.scalar() is True

    def _phase1(self, ctx, conn, task_index: int, rows: List[Tuple]) -> Generator:
        """Stage this partition's data exactly once.

        The COPY and the conditional done-flag update run under one
        transaction, so the record of this task having staged its data is
        durable iff the data itself is (§3.2.1 Phase 1).
        """
        yield from conn.execute("BEGIN")
        if (yield from self._task_done(conn, task_index)):
            # A previous attempt of this task already staged its data.
            yield from conn.execute("ROLLBACK")
            return
        loaded, failed = yield from self._copy_partition(ctx, conn, rows)
        ctx.probe("s2v:phase1_data_staged")
        yield from self._claim_task(
            ctx, conn, task_index,
            f"rows_inserted = {loaded}, rows_failed = {failed}", own_txn=False,
        )

    def _claim_task(self, ctx, conn, task_index: int, claimed: str,
                    own_txn: bool) -> Generator:
        """The conditional done-flag update, then COMMIT if it hit.

        The update is the single atomic arbiter of which attempt's data the
        job commits.  The direct transport claims inside the transaction
        that holds its COPY (contention retries only the update; the staged
        rows stay in the open transaction); a staged attempt's file is
        already durable, so each try brackets itself (``own_txn``).
        """

        def claim() -> Generator:
            if own_txn:
                yield from conn.execute("BEGIN")
            return (yield from conn.execute(
                f"UPDATE {self.status_table} SET done = TRUE, {claimed} "
                f"WHERE task_id = {task_index} AND done = FALSE"
            ))

        update = yield from conn.retry_on_contention(
            claim, what=f"UPDATE {self.status_table}",
            on_contention=(lambda: conn.execute("ROLLBACK")) if own_txn else None,
        )
        if update.rowcount == 1:
            ctx.probe("s2v:phase1_before_commit")
            yield from conn.execute("COMMIT")
            ctx.probe("s2v:phase1_after_commit")
        else:
            # A duplicate of this task claimed first; discard our copy (a
            # staged attempt's file stays behind as an orphan for the
            # cleanup sweep — no rename, no delete on the hot path).
            yield from conn.execute("ROLLBACK")

    def _copy_partition(self, ctx, conn, rows: List[Tuple]) -> Generator:
        """Alternately Avro-encode a chunk (Spark CPU) and COPY it in."""
        model = self.cluster.cost_model
        weight = self.opts.scale_factor
        loaded = 0
        failed = 0
        header_bytes = self._header_bytes
        for start in range(0, len(rows), COPY_CHUNK_ROWS):
            chunk = rows[start : start + COPY_CHUNK_ROWS]
            payload = encode_rows(
                self.avro_schema, chunk, codec=self.opts.avro_codec
            )
            effective_weight = model.virtual_bytes(
                len(payload), header_bytes, weight
            ) / len(payload)
            encode_seconds = model.encode_seconds(
                len(chunk), len(payload), header_bytes, weight
            )
            if encode_seconds > 0:
                yield from ctx.node.compute(encode_seconds)
            yield from conn.execute(
                f"COPY {self.staging} FROM STDIN FORMAT AVRO "
                f"REJECTMAX {CHUNK_REJECT_MAX} DIRECT",
                copy_data=payload,
                weight=effective_weight,
            )
            copy_result = conn.session.last_copy_result
            loaded += copy_result.loaded
            failed += copy_result.rejected
        return loaded, failed

    def _phase1_staged(self, ctx, conn, task_index: int,
                       rows: List[Tuple]) -> Generator:
        """Stage this partition as an attempt-named columnar file.

        The file is written *before* any database state changes, under a
        name unique to this attempt, and is never renamed: the conditional
        done-flag update (which also records the file path) is the single
        atomic arbiter of which attempt's file the job commits.  A losing
        or crashed attempt leaves only an unclaimed file, swept at cleanup.
        """
        if (yield from self._task_done(conn, task_index)):
            # A previous attempt of this task already claimed its file.
            return
        model = self.cluster.cost_model
        weight = self.opts.scale_factor
        header_bytes = self._header_bytes
        payload = write_columnar(self.avro_schema, rows)
        nbytes = model.virtual_bytes(len(payload), header_bytes, weight)
        encode_seconds = model.encode_seconds(
            len(rows), len(payload), header_bytes, weight, columnar=True
        )
        if encode_seconds > 0:
            yield from ctx.node.compute(encode_seconds)
        path = stg.attempt_file_path(
            self.opts.staging_root, self.job_name, task_index, ctx.attempt_id
        )
        ctx.probe("s2v:staged_before_file_write")
        yield from stg.write_staged_file(
            self.hdfs, ctx.node, "default", path, payload, nbytes,
            name=f"stage:{path}", load_map=self._staging_write_load,
        )
        ctx.probe("s2v:staged_after_file_write")
        yield from self._claim_task(
            ctx, conn, task_index,
            f"rows_inserted = {len(rows)}, rows_failed = 0, file = '{path}'",
            own_txn=True,
        )

    def _phase2(self, ctx, conn) -> Generator:
        result = yield from conn.execute(
            f"SELECT COUNT(*) FROM {self.status_table} "
            "WHERE done = FALSE OR done IS NULL"
        )
        return result.scalar() == 0

    def _phase3(self, ctx, conn, task_index: int) -> Generator:
        yield from conn.execute_with_retry(
            f"UPDATE {self.committer_table} SET task_id = {task_index} "
            "WHERE task_id IS NULL"
        )

    def _phase4(self, ctx, conn, task_index: int) -> Generator:
        result = yield from conn.execute(
            f"SELECT task_id FROM {self.committer_table}"
        )
        return result.scalar() == task_index

    def _phase5(self, ctx, conn) -> Generator:
        if self.staged:
            # The winner's commit is the manifest: a driver-readable record
            # of the winning attempt files.  Loading and publishing the
            # target stay with the driver (the single bulk-load committer),
            # which also owns the rejected-row tolerance — staged tasks
            # never parse rows, so rejections only exist at bulk-load time.
            yield from self._phase5_staged_manifest(ctx, conn)
            return
        inserted, rejected = yield from self._status_totals(conn)
        yield from self._commit(ctx, conn, inserted, rejected)

    def _phase5_staged_manifest(self, ctx, conn) -> Generator:
        """Write the commit manifest: the winning attempt file per task.

        The status table is frozen once every task is done, so the manifest
        content is deterministic — a speculative duplicate of the winner
        rewrites byte-identical content (overwrite of an immutable record,
        not a rename), which makes this step idempotent.
        """
        result = yield from conn.execute(
            f"SELECT task_id, rows_inserted, file FROM {self.status_table}"
        )
        entries = [
            {"task": int(task), "rows": int(rows or 0), "path": path}
            for task, rows, path in result.rows
        ]
        payload = stg.encode_manifest(self.job_name, entries)
        path = stg.manifest_path(self.opts.staging_root, self.job_name)
        ctx.probe("s2v:staged_before_manifest")
        yield from stg.write_staged_file(
            self.hdfs, ctx.node, "default", path, payload, float(len(payload)),
            name=f"manifest:{self.job_name}",
        )
        telemetry.counter("hdfs.staging.manifests_written").inc()
        ctx.probe("s2v:staged_after_manifest")

    def _commit_append(self, ctx, conn, failed_percent: float) -> Generator:
        """Atomic: conditional final-status update + INSERT..SELECT, one txn."""

        def publish() -> Generator:
            yield from conn.execute("BEGIN")
            update = yield from conn.execute(
                self._arbiter_sql("SUCCESS", failed_percent)
            )
            if update.rowcount != 1:
                # A duplicate of the winner already finalised the job.
                yield from conn.execute("ROLLBACK")
                return
            ctx.probe("s2v:phase5_before_append")
            yield from conn.execute(
                f"INSERT INTO {self.target} SELECT * FROM {self.staging}"
            )
            yield from conn.execute("COMMIT")
            ctx.probe("s2v:phase5_after_commit")

        yield from conn.retry_on_contention(
            publish, what=f"INSERT INTO {self.target}",
            on_contention=lambda: conn.execute("ROLLBACK"),
        )

    def _commit_overwrite(self, ctx, conn, failed_percent: float) -> Generator:
        """Entitlement first, then the atomic rename.

        The conditional final-status update is the single atomic arbiter:
        exactly one attempt (original, restarted, or speculative duplicate)
        flips IN_PROGRESS → SUCCESS, and only that attempt ever touches the
        target table.  Duplicates that lose the update return without side
        effects, so they can never drop a freshly renamed target.  If the
        entitled attempt crashes between the update and the rename, the
        driver's finalisation step completes the rename (the staging table
        is still present as the durable evidence).
        """
        update = yield from conn.execute_with_retry(
            self._arbiter_sql("SUCCESS", failed_percent)
        )
        if update.rowcount != 1:
            return  # another attempt finalised (or will finalise) the job

        def rename() -> Generator:
            yield from conn.execute(f"DROP TABLE IF EXISTS {self.target}")
            ctx.probe("s2v:phase5_before_rename")
            yield from conn.execute(
                f"ALTER TABLE {self.staging} RENAME TO {self.target}"
            )

        # Contention here is a zombie duplicate still holding an insert
        # lock on the staging table; its transaction aborts shortly.
        yield from conn.retry_on_contention(
            rename, what=f"ALTER TABLE {self.staging} RENAME"
        )
        ctx.probe("s2v:phase5_after_rename")

    # ----------------------------------------------------------------- finalize
    def _finalize(self, job=None) -> Generator:
        yield from self._quiesce(job)
        with self._driver_connection() as conn:
            if self.staged:
                return (yield from self._finalize_staged(conn))
            if self.mode != "append":  # append publishes without a rename
                yield from self._finish_entitled_rename(conn)
            inserted, rejected = yield from self._status_totals(conn)
            return (yield from self._conclude(conn, inserted, rejected))

    # ---------------------------------------------------------- staged finalize
    def _finalize_staged(self, conn) -> Generator:
        """Driver side of the staged commit: bulk loads, then publication.

        Reads the winner manifest, issues one bulk ``COPY ... FORMAT
        COLUMNAR`` per Vertica node over that node's share of the files
        (pulled from HDFS through the node's ingest ceiling, all nodes in
        parallel), applies the rejected-row tolerance, and publishes the
        staging table with the same conditional final-status arbiter the
        direct transport uses.  The driver connection has no client node,
        so this path cannot be severed — it is the single committer.
        """
        manifest_file = stg.manifest_path(self.opts.staging_root, self.job_name)
        if not self.hdfs.fs.exists(manifest_file):
            raise S2VError(
                f"{self.job_name}: staged job finished its tasks but no "
                f"manifest exists at {manifest_file!r}"
            )
        manifest = stg.decode_manifest(self.hdfs.fs.read(manifest_file))
        loaded, rejected = yield from self._bulk_load_staged(manifest)
        yield from self._commit(_DriverContext(), conn, loaded, rejected)
        result = yield from self._conclude(conn, loaded, rejected)
        stg.sweep_job_dir(
            self.hdfs, self.opts.staging_root, self.job_name,
            committed=[entry["path"] for entry in manifest["files"]],
        )
        return result

    def _bulk_load_staged(self, manifest) -> Generator:
        """One bulk COPY per Vertica node over its share of manifest files."""
        env = self.cluster.env
        by_node: Dict[str, List[Dict]] = {}
        for entry in manifest["files"]:
            node = self.nodes[entry["task"] % len(self.nodes)]
            by_node.setdefault(node, []).append(entry)
        counts: List[Tuple[int, int]] = []
        model = self.cluster.cost_model
        weight = self.opts.scale_factor
        header = self._header_bytes
        # shared across the per-node loads: spreads concurrent pulls over
        # block replicas instead of hammering each block's first copy
        load_map: Dict[str, float] = {}

        def load_node(node_name: str, entries: List[Dict]) -> Generator:
            with self._driver_connection(node_name) as node_conn:
                # COPY streams its input straight off the staging FS:
                # the pull transfers run concurrently with the node's
                # parse/redistribute work, just like a direct COPY
                # overlaps wire time with load CPU.
                payloads: List[bytes] = []
                virtual = 0.0
                pulls = []
                for entry in entries:
                    size = self.hdfs.fs.file_size(entry["path"])
                    nbytes = model.virtual_bytes(size, header, weight)
                    payloads.append(self.hdfs.fs.read(entry["path"]))
                    virtual += nbytes
                    pulls.append(env.process(
                        stg.pull_staged_file(
                            self.cluster, self.hdfs, entry["path"],
                            node_name, nbytes,
                            name=f"bulk-pull:{entry['path']}",
                            load_map=load_map,
                        ),
                        name=f"bulk-pull-{node_name}",
                    ))
                blob = b"".join(payloads)
                effective_weight = virtual / max(1, len(blob))
                with telemetry.span("hdfs.staging.bulk_copy", node=node_name,
                                    files=len(entries)):
                    yield from node_conn.execute(
                        f"COPY {self.staging} FROM "
                        f"'{stg.job_dir(self.opts.staging_root, self.job_name)}"
                        f"/node-{node_name}' FORMAT COLUMNAR "
                        f"REJECTMAX {CHUNK_REJECT_MAX} DIRECT",
                        copy_data=blob,
                        weight=effective_weight,
                    )
                    if pulls:
                        yield env.all_of(pulls)
                copy_result = node_conn.session.last_copy_result
                counts.append((copy_result.loaded, copy_result.rejected))

        loads = [
            env.process(load_node(node, entries), name=f"bulk-load-{node}")
            for node, entries in sorted(by_node.items())
        ]
        if loads:
            yield env.all_of(loads)
        return (
            sum(loaded for loaded, __ in counts),
            sum(rejected for __, rejected in counts),
        )
