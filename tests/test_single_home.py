"""Guards for "one home per rule": where a cost knob may be read, and
which way the packages may import each other."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: every knob that turns a statement's counts into seconds or bytes
PRICED_KNOBS = {
    "scan_cpu_per_row", "agg_cpu_per_row", "output_cpu_per_row", "output_cpu_per_byte",
    "encode_cpu_per_row", "encode_cpu_per_byte", "columnar_encode_cpu_factor",
    "load_cpu_per_row", "load_cpu_per_byte", "columnar_load_cpu_factor",
    "jdbc_float_bytes", "jdbc_int_bytes", "jdbc_bool_bytes",
}
#: the system proper; baselines and the bench harness sit on top of it
CORE_PACKAGES = ("sim", "hdfs", "vertica", "spark", "connector", "cache", "wlm")


def modules(*packages):
    """(path, AST) of every module under the named packages (default: all)."""
    for package in packages or ("",):
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_priced_knobs_are_read_only_by_the_cost_model():
    """Every count meets its knob inside the cost model: the JDBC bridge
    schedules what ``price`` / ``price_copy`` return, and every transport
    prices encode and COPY-parse CPU through ``encode_seconds`` /
    ``load_seconds``.  A second copy of a formula is how the two-stage
    writer came to charge no encode CPU at all.  Latencies, the two rate
    caps and the NIC names are not in the set: each is applied as-is at its
    one call site, with no count to meet.  (Constructor keywords, as in
    ``bench/fabric.py``, are writes and do not count.)"""
    readers = {
        f"{name}:{node.lineno}"
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PRICED_KNOBS
        and isinstance(node.ctx, ast.Load)
        and name != "repro/connector/costmodel.py"
    }
    assert readers == set()


def test_core_packages_import_neither_baselines_nor_bench():
    """The comparison points and the harness depend on the system, never
    the other way round (``SimHdfsCluster`` lives in ``repro.hdfs`` so the
    staged transport can name its filesystem's type)."""
    offenders = []
    for name, tree in modules(*CORE_PACKAGES):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{name}:{node.lineno}" for module in imported
                if module.startswith(("repro.baselines", "repro.bench"))
            ]
    assert offenders == []


def test_a_result_is_sized_by_the_bridge_alone():
    """The scale a result ships at is read off its statement by one rule,
    ``jdbc.shipped_weight``; the staged export's ``output_weight=0.0`` —
    its rows leave as file bytes, not as a result stream — is the one
    call that overrides it.  Callers that chose their own output weight
    disagreed: EXPLAIN and PROFILE text shipped as if it were data."""
    callers = [
        name
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "output_weight"
    ]
    assert callers == ["repro/connector/v2s.py"]


#: the session that holds the settings and the one engine entry that reads them
SETTINGS_IMPORTERS = {"repro/vertica/session.py", "repro/vertica/engine.py"}


def test_settings_stop_at_the_engine():
    """A session's settings are read by ``Engine.execute`` and nowhere
    below it: bind, optimize, the plan cache and the operators never see
    them, so which plan runs depends only on the statement and the
    catalog, and the plan cache keys on nothing else.  Every other import
    of ``repro.vertica.settings`` is an offender — as the optimizer, the
    pipeline and the view scan were while ``JOIN_STRATEGY`` existed."""
    offenders = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                continue
            if "repro.vertica.settings" in imported and name not in SETTINGS_IMPORTERS:
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_no_operator_evaluates_an_expression_per_row():
    """Operators run expressions as kernels (``repro.vertica.kernels``), one
    call per batch; the per-row walk lives on only as the kernels' error
    path and as HAVING's ``predicate_holds``.  So the row adapter stays
    deleted, and ``plan/physical.py`` calls no ``.evaluate(...)``."""
    assert [
        name for name in sorted((SRC / "repro").rglob("*.py"))
        if "RowView" in name.read_text()
    ] == []
    (tree,) = [
        tree for name, tree in modules("vertica/plan")
        if name.endswith("plan/physical.py")
    ]
    assert [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "evaluate"
    ] == []


#: what a variable holding a statement's text or canonical key is called
STATEMENT_TEXT_NAMES = {"sql", "canonical", "cache_key"}
#: the string methods that read such text apart
TEXT_PROBES = {
    "upper", "lower", "strip", "lstrip", "split", "partition", "startswith",
    "find", "index",
}
#: formatting an error message from the text decides nothing:
#: (module, enclosing class) pairs
MESSAGE_FORMATTERS = {
    ("repro/vertica/errors.py", "RetriesExhausted"),
    ("repro/connector/jdbc.py", "ConnectionSevered"),
}


def test_only_the_front_door_reads_statement_text():
    """What a statement *is* — its class, leading keyword, the relations
    and functions it names — is asked of its parse (``Session.prepare``).
    Outside the lexer/parser and the cache's key rendering, no module picks
    statement text or a canonical key apart with string methods or ``in``:
    that is how a leading comment skipped WLM admission and a view hid a
    system table from the result cache."""

    def named(node):
        if isinstance(node, ast.Name):
            return node.id
        return node.attr if isinstance(node, ast.Attribute) else None

    def probes(tree):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in TEXT_PROBES
                and named(node.func.value) in STATEMENT_TEXT_NAMES
            ):
                yield node.lineno
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                if any(named(c) in STATEMENT_TEXT_NAMES for c in node.comparators):
                    yield node.lineno

    offenders = []
    for name, tree in modules():
        if name.startswith(("repro/vertica/sql/", "repro/cache/")):
            continue
        excused = {
            line
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and (name, node.name) in MESSAGE_FORMATTERS
            for line in probes(node)
        }
        offenders += [
            f"{name}:{line}" for line in probes(tree) if line not in excused
        ]
    assert offenders == []


def scoped(tree, scopes=()):
    """(node, enclosing def/class names, parent) for every node under
    ``tree``."""
    for child in ast.iter_child_nodes(tree):
        yield child, scopes, tree
        inner = scopes
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = scopes + (child.name,)
        yield from scoped(child, inner)


def homed(name, scopes, homes):
    """True when module ``name`` (within ``scopes``) is one of ``homes``:
    a module, or a (module, def or class) pair."""
    return name in homes or any((name, scope) in homes for scope in scopes)


#: where a plan node's row estimate may be read: the optimizer that makes
#: it, the node that holds it, and the renderers that print it
ESTIMATE_HOMES = {
    "repro/vertica/plan/optimizer.py", "repro/vertica/plan/logical.py",
    ("repro/vertica/plan/pipeline.py", "explain_lines"),
    ("repro/vertica/plan/pipeline.py", "_join_order_lines"),
    ("repro/vertica/plan/pipeline.py", "PlanProfile"),
}


def test_execution_decides_from_rows_it_holds():
    """An estimate plans; it never executes.  ``estimated_rows`` is read
    (as an attribute or a ``getattr`` name) only by the optimizer, the
    logical nodes and EXPLAIN/PROFILE: an operator that consulted it would
    make its run depend on statistics the plan cache does not key on —
    how a hash join once swapped its build side from an estimate, and how
    executed queries once fed estimates back into later plans."""
    offenders = []
    for name, tree in modules():
        for node, scopes, __ in scoped(tree):
            reads = (
                isinstance(node, ast.Attribute) and node.attr == "estimated_rows"
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and any(isinstance(arg, ast.Constant)
                        and arg.value == "estimated_rows" for arg in node.args)
            )
            if reads and not homed(name, scopes, ESTIMATE_HOMES):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


#: who may write ``Catalog.statistics``: ANALYZE and the catalog's DDL
STATISTICS_WRITERS = {
    ("repro/vertica/engine.py", "analyze"), ("repro/vertica/catalog.py", "Catalog"),
}
#: and who may read it: those, the estimator and the system table
STATISTICS_READERS = STATISTICS_WRITERS | {
    ("repro/vertica/plan/optimizer.py", "_stats_for_scan"),
    ("repro/vertica/catalog.py", "_column_statistics"),
}
MUTATORS = {"pop", "popitem", "update", "clear", "setdefault", "__setitem__"}


def test_only_analyze_writes_statistics():
    """Statistics change only at ANALYZE, which bumps the catalog version
    the plan cache keys on; so a plan is a function of (statement, catalog
    version), and nothing a session loads, rolls back,
    merges out or executes moves another session's plans.  Every
    ``.statistics`` access outside the readers, and every write (item
    assignment or deletion, a mutating method, rebinding) outside the
    writers, is an offender — as COPY's incremental update and the
    mergeout re-collect were."""
    offenders = []
    for name, tree in modules():
        nodes = list(scoped(tree))
        parents = {id(node): parent for node, __, parent in nodes}
        for node, scopes, parent in nodes:
            if not (isinstance(node, ast.Attribute) and node.attr == "statistics"):
                continue
            writes = isinstance(node.ctx, (ast.Store, ast.Del)) or (
                isinstance(parent, ast.Subscript)
                and isinstance(parent.ctx, (ast.Store, ast.Del))
            ) or (
                isinstance(parent, ast.Attribute) and parent.attr in MUTATORS
                and isinstance(parents.get(id(parent)), ast.Call)
            )
            homes = STATISTICS_WRITERS if writes else STATISTICS_READERS
            if not homed(name, scopes, homes):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


#: where a UDx's function is called, and who calls that: the block kernel
#: and the row evaluator's ``apply``
UDX_CALL_HOMES = {("repro/vertica/expr.py", "block")}
UDX_BLOCK_CALLERS = {
    ("repro/vertica/kernels.py", "_udx"), ("repro/vertica/expr.py", "apply"),
}
#: where the registry is asked for a function: the projection that runs it
UDX_LOOKUP_HOMES = {("repro/vertica/plan/physical.py", "ProjectOp")}


def test_a_udx_is_called_by_the_block_kernel_and_apply_only():
    """A registered UDx is block-oriented (``fn(columns, parameters,
    num_rows) -> list``): ``UdxCall.block`` calls it and checks it returned
    one value per row, and only the block kernel (once per batch) and
    ``UdxCall.apply`` (on one-row columns, the row evaluator) call that.
    ``ProjectOp`` is the one place the registry is asked for a function,
    and the generic row loop no longer carries a foreign-error escape:
    a per-row UDx path beside the block one is how a second calling
    convention would creep back."""
    offenders = []
    for name, tree in modules():
        for node, scopes, __ in scoped(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_row_loop":
                if [arg.arg for arg in node.args.args] != ["apply", "children"]:
                    offenders.append(f"{name}:{node.lineno} _row_loop")
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attribute, owner = node.func.attr, node.func.value
            homes = (
                UDX_CALL_HOMES if attribute == "function"
                else UDX_BLOCK_CALLERS if attribute == "block"
                else UDX_LOOKUP_HOMES if attribute == "lookup"
                and isinstance(owner, ast.Attribute) and owner.attr == "udx"
                else None
            )
            if homes is not None and not homed(name, scopes, homes):
                offenders.append(f"{name}:{node.lineno} .{attribute}()")
    assert offenders == []
