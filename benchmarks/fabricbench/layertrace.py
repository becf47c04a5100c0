"""Outside-in layer tracing: spans around each layer's entry points.

Nothing inside ``src/repro`` knows about this file.  :data:`PATCHES` names,
per layer, the attributes to wrap *at the module that looks them up* (a
``from x import f`` binding is patched where it was imported, a method on
its class).  :meth:`Tracer.install` swaps each for a wrapper that records a
span; :meth:`Tracer.uninstall` restores the originals.

A span has a name, a layer, a start and an end, the span that caused it and
the id of the benchmark op it served.  Self time is the time the span was
running minus the time its children were.  Generator entry points (every
sim process is a generator chain) are timed per resumption — only the time
spent inside ``send()`` counts — and each resumption re-enters the whole
``yield from`` chain of wrappers in order, so sim processes that interleave
on the kernel never corrupt each other's ancestry.

High-frequency leaves (one call per row) are *folded*: calls under the same
parent share one span carrying a call count, which keeps a traced run to
~10^5 spans instead of ~10^7.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter

#: layer of the root span the benchmark opens around each of its ops; its
#: self time is what no layer wrapper accounted for
BENCH_LAYER = "bench.op"


class Span:
    """One traced call (or one generator's lifetime, or a folded leaf)."""

    __slots__ = ("id", "layer", "name", "parent", "op", "start", "end",
                 "active", "child", "calls", "folded")

    def __init__(self, span_id: int, layer: str, name: str,
                 parent: Optional["Span"], op: int, start: float):
        self.id = span_id
        self.layer = layer
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        #: seconds this span was on the stack (sum over resumptions)
        self.active = 0.0
        #: seconds of that during which a child span was running
        self.child = 0.0
        self.calls = 1
        #: name -> [layer, calls, seconds, summed results] of folded leaves
        self.folded: Optional[Dict[str, List[Any]]] = None

    @property
    def self_time(self) -> float:
        return self.active - self.child


#: (layer, "module:attribute.path", mode).  mode: "auto" wraps a generator
#: function per resumption and anything else per call; "fold" is a per-row
#: leaf; "fold+sum" additionally sums the (numeric) return values.
#: A few underscore names appear because the public entry point only
#: *starts* a sim process — the layer's work happens in the generator the
#: kernel later resumes (scheduler attempts, S2V task phases, the
#: network's rate-recompute timer).
PATCHES: List[Tuple[str, str, str]] = [
    ("sim.kernel", "repro.sim.kernel:Environment.run", "auto"),
    ("sim.kernel", "repro.sim.cluster:SimNode.compute", "auto"),
    ("sim.network", "repro.sim.network:Network.transfer", "auto"),
    ("sim.network", "repro.sim.network:Network._on_timer", "auto"),
    ("sim.network", "repro.sim.cluster:SimCluster.transfer", "auto"),
    ("spark.scheduler", "repro.spark.scheduler:TaskScheduler.run", "auto"),
    ("spark.scheduler", "repro.spark.scheduler:TaskScheduler.submit", "auto"),
    ("spark.scheduler", "repro.spark.scheduler:TaskScheduler._driver", "auto"),
    ("spark.scheduler", "repro.spark.scheduler:TaskScheduler._attempt", "auto"),
    ("spark.dataframe", "repro.spark.dataframe:DataFrame.collect", "auto"),
    ("spark.dataframe", "repro.spark.dataframe:GroupedData.agg", "auto"),
    ("spark.dataframe", "repro.spark.dataframe:DataFrameReader.load", "auto"),
    ("spark.dataframe", "repro.spark.dataframe:DataFrameWriter.save", "auto"),
    ("spark.dataframe", "repro.spark.context:SparkSession.run_job", "auto"),
    ("spark.dataframe", "repro.spark.context:SparkSession.run_thunks", "auto"),
    ("connector.v2s",
     "repro.connector.defaultsource:DefaultSource.create_relation", "auto"),
    ("connector.v2s", "repro.connector.v2s:VerticaRelation.build_scan", "auto"),
    ("connector.v2s",
     "repro.connector.v2s:VerticaRelation.build_aggregate_scan", "auto"),
    ("connector.v2s", "repro.connector.v2s:VerticaRelation.cleanup_staging", "auto"),
    ("connector.v2s", "repro.connector.v2s:VerticaScanRDD.compute", "auto"),
    ("connector.v2s", "repro.connector.v2s:VerticaAggregateScanRDD.compute", "auto"),
    ("connector.v2s", "repro.connector.v2s:StagedScanRDD.compute", "auto"),
    ("connector.s2v", "repro.connector.s2v:S2VWriter.save", "auto"),
    ("connector.s2v", "repro.connector.s2v:S2VWriter.save_process", "auto"),
    ("connector.s2v", "repro.connector.s2v:S2VWriter._run_phases", "auto"),
    ("connector.staging", "repro.connector.staging:write_staged_file", "auto"),
    ("connector.staging", "repro.connector.staging:pull_staged_file", "auto"),
    ("connector.staging", "repro.connector.staging:sweep_job_dir", "auto"),
    ("connector.jdbc", "repro.connector.cluster:SimVerticaCluster.connect", "auto"),
    ("connector.jdbc", "repro.connector.jdbc:SimVerticaConnection.execute", "auto"),
    ("connector.jdbc", "repro.connector.jdbc:SimVerticaConnection.close", "auto"),
    ("connector.costmodel",
     "repro.connector.costmodel:VerticaCostModel.jdbc_row_bytes", "fold+sum"),
    ("wlm.admission", "repro.wlm.admission:AdmissionController.admit", "auto"),
    ("wlm.admission", "repro.wlm.admission:AdmissionTicket.release", "auto"),
    ("vertica.session", "repro.vertica.session:Session.execute", "auto"),
    ("vertica.session", "repro.vertica.database:VerticaDatabase.connect", "auto"),
    ("vertica.sql", "repro.vertica.session:parse_statement", "auto"),
    ("cache.plan", "repro.cache.plan:PlanCache.parse", "auto"),
    ("cache.plan", "repro.cache.plan:PlanCache.lookup_plan", "auto"),
    ("cache.plan", "repro.cache.plan:PlanCache.store_plan", "auto"),
    ("cache.result", "repro.cache.result:ResultCache.lookup", "auto"),
    ("cache.result", "repro.cache.result:ResultCache.store", "auto"),
    ("vertica.plan.bind", "repro.vertica.plan.pipeline:bind_select", "auto"),
    ("vertica.plan.bind", "repro.vertica.plan.pipeline:bind_dml_scan", "auto"),
    ("vertica.plan.optimize", "repro.vertica.plan.pipeline:optimize", "auto"),
    ("vertica.plan.execute", "repro.vertica.plan:execute_select", "auto"),
    ("vertica.plan.execute", "repro.vertica.plan:dml_matching_rows", "auto"),
    ("vertica.engine.scan", "repro.vertica.engine:Engine.scan", "auto"),
    ("vertica.engine.dml", "repro.vertica.engine:Engine.insert_rows", "auto"),
    ("vertica.engine.dml", "repro.vertica.engine:Engine.insert_values", "auto"),
    ("vertica.engine.dml", "repro.vertica.engine:Engine.insert_select", "auto"),
    ("vertica.engine.dml", "repro.vertica.engine:Engine.update", "auto"),
    ("vertica.engine.dml", "repro.vertica.engine:Engine.delete", "auto"),
    ("vertica.copyload", "repro.vertica.copyload:run_copy", "auto"),
    ("vertica.txn", "repro.vertica.txn:Transaction.commit", "auto"),
    ("vertica.txn", "repro.vertica.txn:Transaction.abort", "auto"),
    ("vertica.tuplemover", "repro.vertica.tuplemover:TupleMover.mergeout", "auto"),
    ("vertica.tuplemover", "repro.vertica.tuplemover:TupleMover.advance_ahm", "auto"),
    ("avrolite", "repro.connector.s2v:encode_rows", "auto"),
    ("avrolite", "repro.vertica.copyload:decode_rows", "auto"),
    ("hdfs", "repro.connector.v2s:write_columnar", "auto"),
    ("hdfs", "repro.connector.v2s:read_columnar", "auto"),
    ("hdfs", "repro.connector.s2v:write_columnar", "auto"),
    ("hdfs", "repro.hdfs.columnar:read_columnar_concat", "auto"),
    ("hdfs", "repro.hdfs.filesystem:HdfsCluster.write", "auto"),
    ("hdfs", "repro.hdfs.filesystem:HdfsCluster.read", "auto"),
    ("hdfs", "repro.hdfs.filesystem:HdfsCluster.delete", "auto"),
    ("pmml", "repro.pmml.evaluator:ModelEvaluator.evaluate", "fold"),
    ("pmml", "repro.pmml.evaluator:ModelEvaluator.from_xml", "auto"),
]


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:A.b"`` -> (owner object, attribute name, current value).

    Raises ImportError/AttributeError when the entry point was renamed —
    the test suite calls this for every row so a layer cannot silently
    drop out of the trace.
    """
    module_name, __, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


class Tracer:
    """Records spans; doubles as the plain per-op timer when not installed.

    ``time_op_generators=False`` (the untraced end-to-end run) hands
    generator ops back untouched, so interleaved ops cost nothing extra.
    """

    def __init__(self, time_op_generators: bool = True):
        self.time_op_generators = time_op_generators
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: wrappers record only inside a timed window (an op, or a round of
        #: interleaved ops); verification and resets between them run the
        #: same entry points and must not be charged to any layer
        self._recording = False
        self._next_id = 1
        self._next_op = 1
        self._installed: List[Tuple[Any, str, Any]] = []
        #: entry points PATCHES names that no longer resolve
        self.unresolved: List[str] = []
        #: span name -> callback given each return value of that entry point
        self.observers: Dict[str, Callable[[Any], None]] = {}

    # -- the benchmark's own ops --------------------------------------------
    def call(self, kind: str, fn: Callable[[], Any]
             ) -> Tuple[Any, float, Optional[Exception]]:
        """Run one synchronous op under a root span.

        Returns (result, wall seconds, error): an op that raises is a
        failed op for the caller to count, never an aborted run.
        """
        span = self._open(BENCH_LAYER, kind, op=self._new_op())
        self._stack.append(span)
        result, error = None, None
        with self.window():
            started = _clock()
            try:
                result = fn()
            except Exception as exc:  # noqa: BLE001 - reported as a failed op
                error = exc
            finally:
                self._leave(span, started)
        return result, span.active, error

    @contextlib.contextmanager
    def window(self):
        """Everything the wrapped entry points do in here is recorded."""
        was, self._recording = self._recording, True
        try:
            yield
        finally:
            self._recording = was

    def gen(self, kind: str, generator):
        """Run one interleaved (sim-process) op: ``yield from`` this.

        Returns (result, wall seconds or None, error) like :meth:`call`;
        the wall time is the op's own resumptions, not its sim waits.
        """
        span = None
        if self.time_op_generators:
            span = self._open(BENCH_LAYER, kind, op=self._new_op())
            generator = self._drive(BENCH_LAYER, kind, generator, span)
        result, error = None, None
        try:
            result = yield from generator
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            error = exc
        return result, span.active if span is not None else None, error

    def _new_op(self) -> int:
        op = self._next_op
        self._next_op += 1
        return op

    # -- span bookkeeping ------------------------------------------------------
    def _open(self, layer: str, name: str, op: int = 0) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, layer, name, parent,
                    op or (parent.op if parent is not None else 0), _clock())
        self._next_id += 1
        self.spans.append(span)
        return span

    def _leave(self, span: Span, started: float) -> None:
        """Pop ``span`` and charge the elapsed window to it and its parent."""
        now = _clock()
        elapsed = now - started
        stack = self._stack
        stack.pop()
        span.active += elapsed
        span.end = now
        if stack:
            stack[-1].child += elapsed

    def _drive(self, layer: str, name: str, generator,
               span: Optional[Span] = None):
        """Re-yield ``generator``'s events, timing each resumption.

        The span opens at the first resumption, when the stack shows who
        really caused it (a generator object may be created long before).
        """
        stack = self._stack
        value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            if span is None:
                span = self._open(layer, name)
            stack.append(span)
            started = _clock()
            try:
                if thrown is not None:
                    pending, thrown = thrown, None
                    item = generator.throw(pending)
                else:
                    item = generator.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._leave(span, started)
            try:
                value = yield item
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - thrown on inward
                thrown = exc

    # -- wrappers ----------------------------------------------------------------
    def _wrap_call(self, layer: str, name: str, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return original(*args, **kwargs)
            span = tracer._open(layer, name)
            tracer._stack.append(span)
            started = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._leave(span, started)
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        return traced

    def _wrap_generator(self, layer: str, name: str,
                        original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return original(*args, **kwargs)
            return tracer._drive(layer, name, original(*args, **kwargs))

        return traced

    def _wrap_folded(self, layer: str, name: str, original: Callable,
                     sum_results: bool) -> Callable:
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            started = _clock()
            result = original(*args, **kwargs)
            elapsed = _clock() - started
            if stack:  # empty outside a timed window
                top = stack[-1]
                top.child += elapsed
                if top.folded is None:
                    top.folded = {}
                entry = top.folded.get(name)
                if entry is None:
                    entry = top.folded[name] = [layer, 0, 0.0, 0.0]
                entry[1] += 1
                entry[2] += elapsed
                if sum_results:
                    entry[3] += result
            return result

        return traced

    def install(self, patches: Iterable[Tuple[str, str, str]] = PATCHES) -> None:
        """Swap every resolvable entry point for its tracing wrapper."""
        for layer, target, mode in patches:
            try:
                owner, attr, original = resolve(target)
            except (ImportError, AttributeError):
                self.unresolved.append(target)
                continue
            name = target.partition(":")[2]
            function = getattr(original, "__func__", original)
            if mode.startswith("fold"):
                wrapper = self._wrap_folded(layer, name, function,
                                            mode == "fold+sum")
            elif inspect.isgeneratorfunction(function):
                wrapper = self._wrap_generator(layer, name, function)
            else:
                wrapper = self._wrap_call(layer, name, function)
            if isinstance(original, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(original, staticmethod):
                wrapper = staticmethod(wrapper)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, List[float]]:
        """layer -> [self seconds, calls, summed folded results]."""
        totals: Dict[str, List[float]] = {}
        for span in self.spans:
            entry = totals.setdefault(span.layer, [0.0, 0, 0.0])
            entry[0] += span.self_time
            entry[1] += span.calls
            if span.folded:
                for layer, calls, seconds, summed in span.folded.values():
                    leaf = totals.setdefault(layer, [0.0, 0, 0.0])
                    leaf[0] += seconds
                    leaf[1] += calls
                    leaf[2] += summed
        return totals

    def name_calls(self) -> Dict[str, int]:
        """Entry-point name -> how many times it was called."""
        calls: Dict[str, int] = {}
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
        return calls

    def write_jsonl(self, path: str) -> int:
        """One JSON object per span (folded leaves as their own lines)."""
        if not self.spans:
            return 0
        origin = self.spans[0].start
        lines = 0
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                record = {
                    "id": span.id,
                    "layer": span.layer,
                    "name": span.name,
                    "parent": span.parent.id if span.parent else None,
                    "op": span.op,
                    "start_ms": round((span.start - origin) * 1e3, 4),
                    "end_ms": round((span.end - origin) * 1e3, 4),
                    "active_ms": round(span.active * 1e3, 4),
                    "self_ms": round(span.self_time * 1e3, 4),
                    "calls": span.calls,
                }
                out.write(json.dumps(record) + "\n")
                lines += 1
                for name, (layer, calls, seconds, __) in (span.folded or {}).items():
                    out.write(json.dumps({
                        "id": None, "layer": layer, "name": name,
                        "parent": span.id, "op": span.op,
                        "start_ms": record["start_ms"],
                        "end_ms": record["end_ms"],
                        "active_ms": round(seconds * 1e3, 4),
                        "self_ms": round(seconds * 1e3, 4),
                        "calls": calls,
                    }) + "\n")
                    lines += 1
        return lines
