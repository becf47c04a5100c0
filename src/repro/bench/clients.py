"""Closed-loop clients on one fabric: what the serving areas share.

A *client* issues one operation, waits for it, issues the next — N of
them interleave on one simulation clock, every statement passing through
:mod:`repro.wlm` admission control.  :func:`run_clients` is the audited
run both serving areas are measured by: spawn the clients, drain the
clock, then hold the fabric to the :class:`~repro.chaos.InvariantChecker`
— whatever the queueing did, no slot, memory grant or session may leak.
``wlm`` (mixed V2S / S2V / scoring tenants) and ``serving`` (Zipf point
reads over the caching tiers) differ only in the operations they feed it.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.bench.fabric import Fabric
from repro.chaos import InvariantChecker, InvariantReport
from repro.spark.errors import SparkError
from repro.vertica.errors import AdmissionTimeout, VerticaError
from repro.wlm import GENERAL

#: one operation: its kind (for per-kind latencies) and a generator thunk
Op = Tuple[str, Callable[[], Generator]]


def percentile(values: Sequence[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


class ClientStats:
    """One client's outcomes: latencies, queue time, rejections, failures."""

    def __init__(self, client: int, pool: str = GENERAL):
        self.client = client
        self.pool = pool
        #: (kind, latency) of every completed op, in completion order
        self.ops: List[Tuple[str, float]] = []
        self.queue_wait = 0.0
        self.rejections = 0
        self.failures = 0

    @property
    def completed(self) -> int:
        return len(self.ops)

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return [lat for k, lat in self.ops if kind is None or k == kind]

    def percentile(self, fraction: float) -> float:
        return percentile(self.latencies(), fraction)


class ServeRun:
    """One audited serving run: per-client stats, telemetry, invariants."""

    def __init__(self, label: str, clients: List[ClientStats], elapsed: float,
                 report: InvariantReport, snapshot):
        self.label = label
        self.clients = clients
        self.elapsed = elapsed
        self.report = report
        self.snapshot = snapshot

    @property
    def ok(self) -> bool:
        return self.report.ok

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return [lat for stats in self.clients for lat in stats.latencies(kind)]

    def hit_rate(self, cache: str) -> float:
        """Hit fraction of one ``vertica.cache.<cache>`` tier."""
        hits = self.snapshot.counters.get(f"vertica.cache.{cache}.hits", 0.0)
        misses = self.snapshot.counters.get(f"vertica.cache.{cache}.misses", 0.0)
        return hits / (hits + misses) if hits + misses else 0.0

    def describe(self) -> str:
        """Per-client detail plus the audit (telemetry: ``snapshot.render()``)."""
        lines = [f"serve [{self.label}]: {len(self.clients)} clients, "
                 f"{self.elapsed:.3f}s simulated"]
        for stats in self.clients:
            rate = stats.completed / self.elapsed if self.elapsed > 0 else 0.0
            lines.append(
                f"  client {stats.client} [{stats.pool}]: {stats.completed} ops, "
                f"p50={stats.percentile(0.50):.3f}s "
                f"p95={stats.percentile(0.95):.3f}s {rate:.2f} ops/s "
                f"queue_wait={stats.queue_wait:.3f}s "
                f"rejected={stats.rejections} failed={stats.failures}"
            )
        lines.append("  " + self.report.describe().replace("\n", "\n  "))
        return "\n".join(lines)


def client_loop(fabric: Fabric, stats: ClientStats,
                ops: Iterable[Op]) -> Generator:
    """One closed-loop client.  ``ops`` is consumed lazily, so whatever
    it draws (random keys, shared row ids) is drawn at issue time."""
    for kind, op in ops:
        start = fabric.env.now
        try:
            yield from op()
        except AdmissionTimeout:
            stats.rejections += 1
        except (VerticaError, SparkError):
            stats.failures += 1
        else:
            stats.ops.append((kind, fabric.env.now - start))


def run_clients(fabric: Fabric, label: str,
                clients: Sequence[Tuple[ClientStats, Iterable[Op]]]) -> ServeRun:
    """Run every client to completion on ``fabric``'s clock; audited."""
    checker = InvariantChecker(fabric.vertica)
    for stats, ops in clients:
        fabric.env.process(client_loop(fabric, stats, ops),
                           name=f"client{stats.client}")
    report = InvariantReport(f"serve:{label}")
    try:
        fabric.env.run()
        report.passed("clean-drain")
    except Exception as exc:  # noqa: BLE001 - audited, not swallowed
        report.violated("clean-drain", f"serving run raised {exc!r}")
    elapsed = fabric.env.now
    if fabric.vertica.session_pool is not None:
        fabric.vertica.session_pool.close_all()
    report.merge(checker.check_no_leaks())
    all_stats = [stats for stats, __ in clients]
    report.expect("progress", any(stats.completed for stats in all_stats),
                  "no client completed a single op")
    return ServeRun(label, all_stats, elapsed, report,
                    fabric.metrics_snapshot())
