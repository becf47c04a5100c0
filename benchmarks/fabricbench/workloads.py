"""The four workloads: fixed op lists over the public API, each op verified.

Everything here talks to ``repro.sim``, ``repro.vertica``, ``repro.spark``,
``repro.connector``, ``repro.workloads``, ``repro.wlm``, ``repro.pmml`` and
``repro.baselines`` (for the simulated HDFS) — never ``repro.bench``.

Each workload keeps one long-lived testbed for the whole run, issues the
same op list every round (closed loop), and checks every op's output
against answers computed here from the generated data.  A failed check or a
raised error is a failed op; it never aborts the run.
"""

from __future__ import annotations

import bisect
import itertools
import random
import sys
import time
import traceback
from typing import (
    Any, Callable, Dict, Generator, List, NamedTuple, Optional, Sequence, Tuple,
)

from harness import OpRecord
from layertrace import Tracer

from repro.baselines.hdfs_source import SimHdfsCluster
from repro.connector import (
    PAPER_COST_MODEL,
    DefaultSource,
    SimVerticaCluster,
    VerticaCostModel,
    VerticaRelation,
    deploy_pmml_model,
    install_pmml_udx,
)
from repro.pmml import PmmlDocument, RegressionModel, to_xml
from repro.sim import Environment, SimCluster
from repro.spark import DataFrame, LessThan, SparkSession, StructField, StructType
from repro.spark.faults import FailOncePerTaskPolicy, FaultPolicy
from repro.vertica import VerticaDatabase
from repro.wlm import GENERAL, ResourcePool
from repro.workloads import Dataset, load_direct, make_d1, make_d2
from repro.workloads.datasets import D1_VIRTUAL_ROWS

_clock = time.perf_counter

#: real rows behind each fabric dataset (virtual scale from repro.workloads)
REAL_ROWS = 4000
#: §4.1 fixed Spark costs, as the repo's own experiments calibrate them
JOB_LAUNCH_OVERHEAD = 1.2
TASK_LAUNCH_OVERHEAD = 0.005

_MASK = (1 << 64) - 1


def checksum(rows: Sequence[Tuple[Any, ...]]) -> int:
    """Order-independent digest of a row multiset."""
    return sum(hash(tuple(row)) for row in rows) & _MASK


def close(a: float, b: float) -> bool:
    """Float sums may associate differently (per-range partials)."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def fabric_datasets(seed: int) -> Tuple[Dataset, Dataset]:
    """D1+int (21 columns) and D2 (tweets) with seed-independent *keys*.

    The seed draws every payload value and which row carries which key; the
    key sets themselves are fixed — exactly ``REAL_ROWS / 100`` rows per
    integer key, one fixed set of tweet ids.  Keys decide segment placement,
    filter selectivity and group sizes, so a run's cost does not depend on
    which seed it was given, while its answers (and checksums) do.
    """
    rng = random.Random(seed)
    base = make_d1(real_rows=REAL_ROWS, num_cols=20, seed=seed)
    keys = [i % 100 for i in range(REAL_ROWS)]
    rng.shuffle(keys)
    d1 = Dataset(
        "D1+int",
        StructType([StructField("ikey", "long")] + list(base.schema.fields)),
        [(key,) + row for key, row in zip(keys, base.rows)],
        base.virtual_rows, segmentation=["ikey"],
    )
    tweets = make_d2(real_rows=REAL_ROWS, seed=seed + 1)
    ids = [1 + 2_305_843_009 * i for i in range(REAL_ROWS)]
    rng.shuffle(ids)
    d2 = Dataset(
        "D2", tweets.schema,
        [(tweet_id, text) for tweet_id, (__, text) in zip(ids, tweets.rows)],
        tweets.virtual_rows, segmentation=["tweet_id"],
    )
    return d1, d2


class Fabric:
    """Vertica + Spark (+ HDFS) on one sim clock, built from public parts."""

    def __init__(self, num_vertica: int, num_spark: int,
                 cost_model: VerticaCostModel, hdfs: bool = False,
                 wlm: bool = False):
        self.env = Environment()
        self.sim = SimCluster(self.env)
        self.vertica = SimVerticaCluster(
            env=self.env, sim_cluster=self.sim, num_nodes=num_vertica,
            cost_model=cost_model, wlm=wlm,
        )
        self.db = self.vertica.db
        self.spark = SparkSession(
            env=self.env, cluster=self.sim, num_workers=num_spark,
            job_launch_overhead=JOB_LAUNCH_OVERHEAD,
            task_launch_overhead=TASK_LAUNCH_OVERHEAD,
        )
        self.hdfs = (
            SimHdfsCluster(self.env, self.sim, num_nodes=4,
                           disk_bandwidth=150e6)
            if hdfs else None
        )


class Op(NamedTuple):
    """One synchronous op: what to run and how to check what came back."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class Workload:
    """Shared plumbing; subclasses provide set-up and the round's op list."""

    name = ""
    #: kinds in the order one round issues them
    ROUND: Tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.env: Optional[Environment] = None
        self.db: Optional[VerticaDatabase] = None
        #: rows found in an S2V target beyond what the save should hold
        self.duplicate_rows = 0
        self._complained = False

    @property
    def ops_per_round(self) -> int:
        return len(self.ROUND)

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self) -> List[Op]:
        raise NotImplementedError

    def before_round(self) -> None:
        """Untimed reset so every round starts from the same state."""

    def sim_seconds(self, started: float, result: Any) -> float:
        return self.env.now - started

    def run_round(self, probe: Tracer, between_ops: Callable[[], None]
                  ) -> Tuple[float, List[OpRecord]]:
        """One pass over the op list; returns (timed seconds, op records).

        ``between_ops`` runs after every op, outside its timed window (the
        harness samples its calibration kernel there).
        """
        self.before_round()
        records: List[OpRecord] = []
        wall = 0.0
        for op in self.round_ops():
            sim_started = self.env.now if self.env is not None else 0.0
            result, seconds, error = probe.call(op.kind, op.run)
            sim = self.sim_seconds(sim_started, result) if error is None else 0.0
            ok = error is None and self.verified(op.kind, op.check, result)
            if error is not None:
                self.complain(op.kind, error)
            records.append(OpRecord(op.kind, seconds, sim, ok))
            wall += seconds
            between_ops()
        return wall, records

    def verified(self, kind: str, check: Callable[[Any], bool],
                 result: Any) -> bool:
        try:
            ok = bool(check(result))
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failed op
            self.complain(kind, exc)
            return False
        if not ok:
            self.complain(kind, None)
        return ok

    def complain(self, kind: str, error: Optional[BaseException]) -> None:
        """Say why the first failed op failed (the rest are only counted)."""
        if self._complained:
            return
        self._complained = True
        print(f"fabricbench: {self.name} op {kind!r} failed"
              + (": output check did not hold" if error is None else ""),
              file=sys.stderr)
        if error is not None:
            traceback.print_exception(type(error), error, error.__traceback__,
                                      file=sys.stderr)

    def counters(self) -> Dict[str, float]:
        """Gauges the traced pass differences or reads at its end."""
        containers = sum(
            len(found)
            for storage in self.db.storage.values()
            for found in storage.containers.values()
        )
        return {
            "sim_events": (
                float(self.env.stats.events_processed)
                if self.env is not None else 0.0
            ),
            "containers": float(containers),
            "duplicate_rows": float(self.duplicate_rows),
        }

    def table_rows(self, table: str) -> List[Tuple[Any, ...]]:
        with self.db.connect() as session:
            return session.execute(f"SELECT * FROM {table}").rows


# ------------------------------------------------------------------ v2s_load
class V2SLoad(Workload):
    """Read path: hash-range loads with projection/filter/aggregate pushdown."""

    name = "v2s_load"
    ROUND = (
        "load_full", "load_filtered", "load_full", "load_agg", "load_full",
        "load_d2", "load_full", "load_filtered", "load_full", "load_agg",
        "load_full", "load_staged",
    )
    PARTITIONS = 16
    STAGED_PARTITIONS = 8
    #: the paper's 5 % selectivity predicate on the integer key (§4.7.1)
    FILTER_BELOW = 5
    PROJECTION = ("IKEY", "C000", "C001")

    def setup(self) -> None:
        self.fabric = Fabric(4, 8, PAPER_COST_MODEL, hdfs=True)
        self.env, self.db = self.fabric.env, self.fabric.db
        self.d1, self.d2 = fabric_datasets(self.seed)
        load_direct(self.fabric.vertica, self.d1, "D1")
        load_direct(self.fabric.vertica, self.d2, "D2")
        self.full = (len(self.d1.rows), checksum(self.d1.rows))
        self.tweets = (len(self.d2.rows), checksum(self.d2.rows))
        kept = [r[:3] for r in self.d1.rows if r[0] < self.FILTER_BELOW]
        self.filtered = (len(kept), checksum(kept))
        self.groups: Dict[int, List[float]] = {}
        for row in self.d1.rows:
            entry = self.groups.setdefault(row[0], [0, 0.0])
            entry[0] += 1
            entry[1] += row[1]

    def _reader(self, table: str, dataset: Dataset) -> DataFrame:
        return self.fabric.spark.read.format("vertica").options(
            db=self.fabric.vertica, table=table,
            numpartitions=self.PARTITIONS, scale_factor=dataset.scale,
        ).load()

    def load_full(self) -> List[Tuple]:
        return self._reader("D1", self.d1).collect()

    def load_filtered(self) -> List[Tuple]:
        frame = self._reader("D1", self.d1)
        frame = frame.filter(LessThan("IKEY", self.FILTER_BELOW))
        return frame.select(*self.PROJECTION).collect()

    def load_agg(self) -> List[Tuple]:
        frame = self._reader("D1", self.d1)
        return frame.group_by("IKEY").agg(("*", "count"), ("C000", "sum")).collect()

    def load_d2(self) -> List[Tuple]:
        return self._reader("D2", self.d2).collect()

    def load_staged(self) -> List[Tuple]:
        relation = VerticaRelation(self.fabric.spark, dict(
            db=self.fabric.vertica, table="D1",
            numpartitions=self.STAGED_PARTITIONS,
            scale_factor=self.d1.scale, transport="staging",
            staging_fs=self.fabric.hdfs,
        ))
        frame = DataFrame(self.fabric.spark, relation.schema,
                          relation=relation,
                          num_partitions=self.STAGED_PARTITIONS)
        try:
            return frame.collect()
        finally:
            relation.cleanup_staging()

    def _agg_ok(self, rows: List[Tuple]) -> bool:
        if len(rows) != len(self.groups):
            return False
        return all(
            key in self.groups and count == self.groups[key][0]
            and close(total, self.groups[key][1])
            for key, count, total in rows
        )

    def round_ops(self) -> List[Op]:
        def same(expected: Tuple[int, int]) -> Callable[[List[Tuple]], bool]:
            return lambda rows: (len(rows), checksum(rows)) == expected

        table = {
            "load_full": Op("load_full", self.load_full, same(self.full)),
            "load_filtered": Op("load_filtered", self.load_filtered,
                                same(self.filtered)),
            "load_agg": Op("load_agg", self.load_agg, self._agg_ok),
            "load_d2": Op("load_d2", self.load_d2, same(self.tweets)),
            "load_staged": Op("load_staged", self.load_staged, same(self.full)),
        }
        return [table[kind] for kind in self.ROUND]


# ------------------------------------------------------------------ s2v_save
class S2VSave(Workload):
    """Write path: the five-phase exactly-once save, once under failure."""

    name = "s2v_save"
    ROUND = ("save_overwrite", "save_append", "save_d2", "save_staged",
             "save_faulty")
    PARTITIONS = 16
    STAGED_PARTITIONS = 8
    APPEND_TABLE = "S2V_APPEND"
    #: every task's first attempt dies right after its phase-1 commit
    FAULT_PROBE = "s2v:after_phase1"

    def setup(self) -> None:
        self.fabric = Fabric(4, 8, PAPER_COST_MODEL, hdfs=True)
        self.env, self.db = self.fabric.env, self.fabric.db
        self.d1, self.d2 = fabric_datasets(self.seed)
        spark = self.fabric.spark
        self.frame1 = spark.create_dataframe(
            self.d1.rows, self.d1.schema, num_partitions=self.PARTITIONS)
        self.frame2 = spark.create_dataframe(
            self.d2.rows, self.d2.schema, num_partitions=self.PARTITIONS)
        self.sums = {
            "d1": (len(self.d1.rows), checksum(self.d1.rows)),
            "d2": (len(self.d2.rows), checksum(self.d2.rows)),
        }
        with self.db.connect() as session:
            session.execute(self.d1.create_table_sql(self.APPEND_TABLE))

    def before_round(self) -> None:
        # append always lands on an empty table, so rounds stay alike
        with self.db.connect() as session:
            session.execute(f"TRUNCATE TABLE {self.APPEND_TABLE}")

    def _save(self, frame: DataFrame, dataset: Dataset, table: str,
              mode: str = "overwrite", **options: Any):
        opts = dict(db=self.fabric.vertica, table=table,
                    numpartitions=self.PARTITIONS,
                    scale_factor=dataset.scale)
        opts.update(options)
        frame.write.format("vertica").options(opts).mode(mode).save()
        return DefaultSource.last_save_result

    def save_faulty(self):
        scheduler = self.fabric.spark.scheduler
        policy = FailOncePerTaskPolicy(self.FAULT_PROBE)
        scheduler.fault_policy = policy
        try:
            result = self._save(self.frame1, self.d1, "S2V_FAULTY")
        finally:
            scheduler.fault_policy = FaultPolicy()
        return result, len(policy.injected)

    def _landed(self, table: str, which: str) -> Callable[[Any], bool]:
        """Target holds exactly the dataset; the job logged itself once."""
        def check(result) -> bool:
            rows = self.table_rows(table)
            expected_count, expected_sum = self.sums[which]
            self.duplicate_rows += max(0, len(rows) - expected_count)
            with self.db.connect() as session:
                logged = session.execute(
                    "SELECT status FROM S2V_JOB_STATUS "
                    f"WHERE job_name = '{result.job_name}'"
                ).rows
            return (
                result.status == "SUCCESS"
                and result.rows_loaded == expected_count
                and result.rows_rejected == 0
                and (len(rows), checksum(rows)) == (expected_count, expected_sum)
                and logged == [("SUCCESS",)]
            )
        return check

    def round_ops(self) -> List[Op]:
        faulty_landed = self._landed("S2V_FAULTY", "d1")
        return [
            Op("save_overwrite",
               lambda: self._save(self.frame1, self.d1, "S2V_OVERWRITE"),
               self._landed("S2V_OVERWRITE", "d1")),
            Op("save_append",
               lambda: self._save(self.frame1, self.d1, self.APPEND_TABLE,
                                  mode="append"),
               self._landed(self.APPEND_TABLE, "d1")),
            Op("save_d2",
               lambda: self._save(self.frame2, self.d2, "S2V_D2"),
               self._landed("S2V_D2", "d2")),
            Op("save_staged",
               lambda: self._save(self.frame1, self.d1, "S2V_STAGED",
                                  numpartitions=self.STAGED_PARTITIONS,
                                  transport="staging",
                                  staging_fs=self.fabric.hdfs),
               self._landed("S2V_STAGED", "d1")),
            Op("save_faulty", self.save_faulty,
               lambda out: out[1] > 0 and faulty_landed(out[0])),
        ]


# -------------------------------------------------------------- sql_analytic
class SqlAnalytic(Workload):
    """Engine only: ``Session.execute`` in process, no sim, Spark or bridge."""

    name = "sql_analytic"
    ROUND = ("point", "full_scan", "filtered_scan", "grouped_agg", "point",
             "join2", "star4", "score", "dml")
    BIG_ROWS = 20_000
    BUILD_ROWS = 1_000
    GROUPS = 37
    FILTER_ABOVE = 90.0
    SCORED_BELOW = 2_000
    DML_ROWS = 500
    DML_UPDATED = 100
    MODEL = "fabricbench"
    WEIGHTS = (0.5, -2.0)
    INTERCEPT = 1.0
    #: each real row stands for this many, as the fabric datasets' do:
    #: 20 k rows priced as the paper's 100 M-row D1
    ROW_WEIGHT = D1_VIRTUAL_ROWS / BIG_ROWS

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.rng = rng
        self.db = VerticaDatabase(num_nodes=4)
        self.session = self.db.connect()
        n = self.BIG_ROWS
        self.big = [
            (i, rng.randrange(self.GROUPS), round(rng.uniform(0.0, 100.0), 3),
             f"n{rng.randrange(50)}")
            for i in range(n)
        ]
        self.probe = [(rng.randrange(self.BUILD_ROWS), float(rng.randrange(97)))
                      for __ in range(n)]
        self.build = [(i, i + 7) for i in range(self.BUILD_ROWS)]
        self.fact = [(rng.randrange(50), rng.randrange(20), rng.randrange(10),
                      float(i)) for i in range(n)]
        long_, double, string = "long", "double", "string"
        self._load("BIG", [("id", long_), ("grp", long_), ("v", double),
                           ("name", string)], self.big, "id")
        self._load("PROBE", [("k", long_), ("pv", double)], self.probe, "k")
        # segmented on the payload, so the join is not co-located
        self._load("BUILD", [("k2", long_), ("pay", long_)], self.build, "pay")
        self._load("F", [("ka", long_), ("kb", long_), ("kc", long_),
                         ("fv", double)], self.fact, "ka")
        self._load("DIMA", [("a_id", long_), ("a_val", long_)],
                   [(i, i * 10) for i in range(50)], "a_id")
        self._load("DIMC", [("c_id", long_), ("c_val", long_)],
                   [(i, i + 100) for i in range(10)], "c_id")
        execute = self.session.execute
        execute("CREATE TABLE DIMB (b_id INTEGER, b_val INTEGER) "
                "UNSEGMENTED ALL NODES")
        execute("INSERT INTO DIMB VALUES "
                + ", ".join(f"({i}, {i * 7})" for i in range(20)))
        execute("CREATE TABLE SIDE (id INTEGER, v FLOAT) "
                "SEGMENTED BY HASH(id) ALL NODES")
        for table in ("BIG", "PROBE", "BUILD", "F", "DIMA", "DIMB", "DIMC"):
            execute(f"ANALYZE {table}")
        install_pmml_udx(self.db)
        deploy_pmml_model(self.db, self.MODEL, to_xml(PmmlDocument(
            RegressionModel(["v", "grp"], list(self.WEIGHTS),
                            intercept=self.INTERCEPT,
                            function_name="regression",
                            model_name=self.MODEL))))
        self._expect()
        self._dml_rounds = 0

    def _load(self, table: str, columns: List[Tuple[str, str]],
              rows: List[Tuple], segmented_by: str) -> None:
        schema = StructType([StructField(n, t) for n, t in columns])
        load_direct(self.db, Dataset(table, schema, rows, len(rows),
                                     [segmented_by]), table)

    def _expect(self) -> None:
        """Answers computed from the generated lists, not from the engine."""
        self.scan_sum = (len(self.big), checksum(self.big))
        kept = [(r[0], r[2]) for r in self.big if r[2] > self.FILTER_ABOVE]
        self.filtered = (len(kept), checksum(kept))
        self.by_group: Dict[int, List[float]] = {}
        for __, grp, v, __ in self.big:
            entry = self.by_group.setdefault(grp, [0, 0.0, v, v])
            entry[0] += 1
            entry[1] += v
            entry[2] = min(entry[2], v)
            entry[3] = max(entry[3], v)
        self.join = (len(self.probe), sum(k + 7 for k, __ in self.probe))
        self.star: Dict[int, List[int]] = {}
        for ka, kb, kc, __ in self.fact:
            if kb * 7 > 20:
                entry = self.star.setdefault(ka * 10, [0, 0])
                entry[0] += 1
                entry[1] += kc + 100
        w_v, w_grp = self.WEIGHTS
        self.scores = {
            r[0]: self.INTERCEPT + w_v * r[2] + w_grp * r[1]
            for r in self.big[: self.SCORED_BELOW]
        }

    def sim_seconds(self, started: float, result: Any) -> float:
        """No simulated hardware here: price what the engine says it did.

        Each statement's CostReport at PAPER_COST_MODEL's per-row rates,
        serially.  Only today's CostReport fields are read, so a later
        change that *adds* charges (joins, shuffles) leaves this number be.
        """
        model = PAPER_COST_MODEL
        results = result if isinstance(result, list) else [result]
        total = 0.0
        for one in results:
            cost = one.cost
            total += model.query_latency + model.query_plan_cpu
            total += self.ROW_WEIGHT * (
                cost.rows_scanned * model.scan_cpu_per_row
                + cost.rows_aggregated * model.agg_cpu_per_row
                + cost.rows_output * model.output_cpu_per_row
                + cost.bytes_output * model.output_cpu_per_byte
                + cost.rows_written * model.load_cpu_per_row
            )
        return total

    def _point(self) -> Op:
        wanted = self.big[self.rng.randrange(self.BIG_ROWS)]
        sql = f"SELECT id, grp, v, name FROM BIG WHERE id = {wanted[0]}"
        return Op("point", lambda: self.session.execute(sql),
                  lambda result: result.rows == [wanted])

    def _grouped_ok(self, result) -> bool:
        if len(result.rows) != len(self.by_group):
            return False
        for grp, count, total, low, high in result.rows:
            want = self.by_group.get(grp)
            if want is None or (count, low, high) != (want[0], want[2], want[3]):
                return False
            if not close(total, want[1]):
                return False
        return True

    def _star_ok(self, result) -> bool:
        got = {a_val: [count, total] for a_val, count, total in result.rows}
        return got == self.star

    def _score_ok(self, result) -> bool:
        return len(result.rows) == len(self.scores) and all(
            close(score, self.scores[row_id]) for row_id, score in result.rows
        )

    def dml(self):
        """INSERT + UPDATE + bounded DELETE, then the mergeout that purges."""
        base = 1_000_000 + self._dml_rounds * self.DML_ROWS
        self._dml_rounds += 1
        execute = self.session.execute
        values = ", ".join(f"({base + i}, {float(i)})"
                           for i in range(self.DML_ROWS))
        results = [
            execute(f"INSERT INTO SIDE VALUES {values}"),
            execute(f"UPDATE SIDE SET v = v + 1 WHERE id >= {base} "
                    f"AND id < {base + self.DML_UPDATED}"),
            execute(f"DELETE FROM SIDE WHERE id < {base}"),
        ]
        mover = self.db.tuple_mover
        mover.advance_ahm()
        mover.mergeout("SIDE")
        return results

    def _dml_ok(self, first: bool) -> Callable[[Any], bool]:
        def check(results) -> bool:
            counts = [r.rowcount for r in results]
            want = [self.DML_ROWS, self.DML_UPDATED,
                    0 if first else self.DML_ROWS]
            left = self.session.execute(
                "SELECT COUNT(*), SUM(v) FROM SIDE").rows[0]
            total = sum(range(self.DML_ROWS)) + self.DML_UPDATED
            return counts == want and left[0] == self.DML_ROWS and close(
                left[1], float(total))
        return check

    def round_ops(self) -> List[Op]:
        execute = self.session.execute

        def same(want: Tuple[int, int]) -> Callable[[Any], bool]:
            return lambda r: (len(r.rows), checksum(r.rows)) == want

        table = {
            "full_scan": Op(
                "full_scan",
                lambda: execute("SELECT id, grp, v, name FROM BIG"),
                same(self.scan_sum)),
            "filtered_scan": Op(
                "filtered_scan",
                lambda: execute("SELECT id, v FROM BIG "
                                f"WHERE v > {self.FILTER_ABOVE}"),
                same(self.filtered)),
            "grouped_agg": Op(
                "grouped_agg",
                lambda: execute("SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) "
                                "FROM BIG GROUP BY grp"),
                self._grouped_ok),
            "join2": Op(
                "join2",
                lambda: execute("SELECT COUNT(*), SUM(pay) FROM PROBE "
                                "JOIN BUILD ON k = k2"),
                lambda r: r.rows == [self.join]),
            "star4": Op(
                "star4",
                lambda: execute(
                    "SELECT a_val, COUNT(*), SUM(c_val) FROM F "
                    "JOIN DIMA ON ka = a_id JOIN DIMB ON kb = b_id "
                    "JOIN DIMC ON kc = c_id WHERE b_val > 20 GROUP BY a_val"),
                self._star_ok),
            "score": Op(
                "score",
                lambda: execute(
                    "SELECT id, PMMLPredict(v, grp USING PARAMETERS "
                    f"model_name='{self.MODEL}') FROM BIG "
                    f"WHERE id < {self.SCORED_BELOW}"),
                self._score_ok),
        }
        ops = []
        for kind in self.ROUND:
            if kind == "point":
                ops.append(self._point())
            elif kind == "dml":
                ops.append(Op("dml", self.dml,
                              self._dml_ok(self._dml_rounds == 0)))
            else:
                ops.append(table[kind])
        return ops


# ---------------------------------------------------------------- serve_zipf
#: light-but-nonzero serving latencies, frozen here so the workload does
#: not move when a harness elsewhere retunes its own
SERVE_COST_MODEL = VerticaCostModel(
    connect_latency=0.02,
    query_latency=0.004,
    ddl_latency=0.01,
    query_plan_cpu=0.002,
    scan_cpu_per_row=2e-6,
    agg_cpu_per_row=2e-6,
    output_cpu_per_row=4e-6,
    load_cpu_per_row=6e-6,
    encode_cpu_per_row=3e-6,
    per_connection_rate_cap=3e4,
    copy_rate_cap=2e4,
)


class ServeZipf(Workload):
    """Serving: 6 closed-loop clients, zero think time, 4 admission slots."""

    name = "serve_zipf"
    CLIENTS = 6
    OPS_PER_CLIENT = 60
    GROUPS = 40
    BASE_ROWS = 600
    SKEW = 1.2
    READ_ZIPF, READ_POINT = 0.70, 0.95  # cumulative; the rest are writes
    #: virtual scale of a read: stretches scans so clients really overlap
    READ_WEIGHT = 200.0
    TABLE = "ZIPF_SRC"
    SLOTS = 4

    @property
    def ops_per_round(self) -> int:
        return self.CLIENTS * self.OPS_PER_CLIENT

    def setup(self) -> None:
        self.fabric = Fabric(3, 2, SERVE_COST_MODEL, wlm=True)
        self.env, self.db = self.fabric.env, self.fabric.db
        rng = random.Random(self.seed)
        self.base = [(i, i % self.GROUPS, float(rng.randrange(23)))
                     for i in range(self.BASE_ROWS)]
        with self.db.connect() as session:
            session.execute(
                f"CREATE TABLE {self.TABLE} (id INTEGER, grp INTEGER, v FLOAT) "
                "SEGMENTED BY HASH(id) ALL NODES")
            session.execute(f"INSERT INTO {self.TABLE} VALUES " + ", ".join(
                f"({i}, {g}, {v})" for i, g, v in self.base))
            session.execute(f"ANALYZE {self.TABLE}")
        self.db.create_resource_pool(ResourcePool(
            GENERAL, memory_mb=4096, planned_concurrency=self.SLOTS,
            max_concurrency=self.SLOTS, queue_timeout=60.0), or_replace=True)
        self.db.result_cache_default = True
        weights = [1.0 / (rank + 1) ** self.SKEW for rank in range(self.GROUPS)]
        total = sum(weights)
        self.cdf = list(itertools.accumulate(w / total for w in weights))
        nodes = self.fabric.vertica.node_names
        self.connections = [
            self.fabric.vertica.connect(
                nodes[c % len(nodes)],
                client_node=self.fabric.sim.add_node(f"client{c}"))
            for c in range(self.CLIENTS)
        ]
        self.rngs = [random.Random(self.seed * 10_007 + c)
                     for c in range(self.CLIENTS)]
        self.next_id = self.BASE_ROWS
        self._reset_shadow()

    def _reset_shadow(self) -> None:
        """Per group [rows, sum(v)]: what has surely landed / may have."""
        self.acked: Dict[int, List[float]] = {
            g: [0, 0.0] for g in range(self.GROUPS)}
        for __, grp, v in self.base:
            self.acked[grp][0] += 1
            self.acked[grp][1] += v
        self.issued = {g: list(entry) for g, entry in self.acked.items()}

    # -- ops (generators on the sim clock) ------------------------------------
    def _read_zipf(self, conn, grp: int) -> Generator:
        low = tuple(self.acked[grp])
        result = yield from conn.execute(
            f"SELECT COUNT(*), SUM(v) FROM {self.TABLE} WHERE grp = {grp}",
            weight=self.READ_WEIGHT, output_weight=1.0)
        high = self.issued[grp]
        count, total = result.rows[0]
        return (low[0] <= count <= high[0]
                and low[1] - 1e-9 <= total <= high[1] + 1e-9)

    def _read_point(self, conn, row_id: int) -> Generator:
        result = yield from conn.execute(
            f"SELECT id, grp, v FROM {self.TABLE} WHERE id = {row_id}",
            weight=self.READ_WEIGHT, output_weight=1.0)
        return result.rows == [self.base[row_id]]

    def _write(self, conn) -> Generator:
        row_id = self.next_id
        self.next_id += 1
        grp, v = row_id % self.GROUPS, float(row_id % 23)
        self.issued[grp][0] += 1
        self.issued[grp][1] += v
        result = yield from conn.execute(
            f"INSERT INTO {self.TABLE} VALUES ({row_id}, {grp}, {v})")
        self.acked[grp][0] += 1
        self.acked[grp][1] += v
        return result.rowcount == 1

    def _client(self, index: int, probe: Tracer,
                records: List[OpRecord]) -> Generator:
        conn, rng = self.connections[index], self.rngs[index]
        for __ in range(self.OPS_PER_CLIENT):
            draw = rng.random()
            if draw < self.READ_ZIPF:
                kind = "read_zipf"
                op = self._read_zipf(
                    conn, bisect.bisect_left(self.cdf, rng.random()))
            elif draw < self.READ_POINT:
                kind = "read_point"
                op = self._read_point(conn, rng.randrange(self.BASE_ROWS))
            else:
                kind = "write"
                op = self._write(conn)
            started = self.env.now
            ok, seconds, error = yield from probe.gen(kind, op)
            if error is not None:
                self.complain(kind, error)
            elif not ok:
                self.complain(kind, None)
            records.append(OpRecord(kind, seconds, self.env.now - started,
                                    error is None and bool(ok)))

    def _maintain(self) -> None:
        """Drop last round's inserts and merge out their containers, so
        every round starts from the base table (part of the round's wall:
        a serving system pays for its own compaction)."""
        if self.next_id == self.BASE_ROWS:
            return
        with self.db.connect() as session:
            session.execute(
                f"DELETE FROM {self.TABLE} WHERE id >= {self.BASE_ROWS}")
        mover = self.db.tuple_mover
        mover.advance_ahm()
        mover.mergeout(self.TABLE)
        self.next_id = self.BASE_ROWS
        self._reset_shadow()

    def run_round(self, probe: Tracer, between_ops: Callable[[], None]
                  ) -> Tuple[float, List[OpRecord]]:
        # ops interleave inside one env.run(): nothing is "between" them
        records: List[OpRecord] = []
        with probe.window():
            started = _clock()
            self._maintain()
            for index in range(self.CLIENTS):
                self.env.process(self._client(index, probe, records),
                                 name=f"client{index}")
            self.env.run()
            wall = _clock() - started
        if not self._reconciled():
            self.complain("write", None)
            records = [op._replace(ok=False) if op.kind == "write" else op
                       for op in records]
        return wall, records

    def _reconciled(self) -> bool:
        """After the clients drain the table must equal the shadow."""
        with self.db.connect() as session:
            session.execute("SET RESULT_CACHE = 'off'")
            rows = session.execute(
                f"SELECT grp, COUNT(*), SUM(v) FROM {self.TABLE} GROUP BY grp"
            ).rows
        if len(rows) != self.GROUPS or self.acked != self.issued:
            return False
        return all(
            count == self.issued[grp][0] and close(total, self.issued[grp][1])
            for grp, count, total in rows
        )


WORKLOADS = {
    cls.name: cls for cls in (V2SLoad, S2VSave, SqlAnalytic, ServeZipf)
}
