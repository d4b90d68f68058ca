"""The embedded columnar database: catalog, rewrites, plan cache, dispatch.

:class:`MemDatabase` is the top-level object backends talk to.  It keeps the
table catalog, parses incoming SQL, runs each statement through the logical
rewrites (see :mod:`.optimizer`), compiles every query to a physical plan
(see :mod:`.planner`) and runs DDL / DML itself.  Compiled scripts are memoized
in an LRU
:class:`PlanCache` keyed by SQL text *and validated against a schema
fingerprint* of every referenced table, so the structurally identical
per-gate queries of a parameter sweep skip tokenize/parse/optimize/compile
entirely while a dropped-and-recreated table with a different shape can
never re-bind a stale plan.  The API is intentionally DB-API-ish
(``execute`` returns an object with ``columns`` and ``rows``) so the RDBMS
backend wrappers can treat SQLite, DuckDB and memdb uniformly.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ...errors import SQLExecutionError
from ...obs.schema import ENGINE_STATS_SCHEMA_VERSION
from ...obs.tracing import Tracer, current_span, shared_tracer, tracing_env_enabled
from .ast_nodes import (
    CreateTable,
    CreateTableAs,
    Delete,
    DropTable,
    Explain,
    Expression,
    Insert,
    Literal,
    Select,
    Statement,
    UnaryOp,
    WithSelect,
)
from .executor import ExpressionEvaluator, QueryResult
from .optimizer import ActualRun, RewriteLog, render_explain, rewrite_statement
from .optimizer.rewrite import referenced_stored_tables
from .column import EncodedColumn
from .parser import Parser, parse_sql
from .planner import CompiledCreateTableAs, CompiledScript, compile_statement
from .table import Table
from .tokenizer import scan


@dataclass(frozen=True)
class CompiledStatement:
    """One statement of a cached script: AST (post-rewrite), plan, report."""

    statement: Statement
    plan: "CompiledScript | CompiledCreateTableAs | None"
    report: Optional[RewriteLog] = None


class CachedScript:
    """A compiled script plus the schema fingerprint it was compiled against.

    ``schemas`` maps every *stored* table a compiled plan references to its
    :meth:`~.table.Table.schema_signature` at the point the referencing
    statement compiled (references made only after the script's own DDL on a
    table are excluded — a replay reproduces that product itself).  The
    cache revalidates the fingerprint on every hit, so the same SQL text
    executed against a structurally different catalog recompiles instead of
    re-binding stale plans.
    """

    __slots__ = ("items", "schemas")

    def __init__(self, items: list[CompiledStatement], schemas: dict[str, tuple]) -> None:
        self.items = items
        self.schemas = schemas

    def is_valid(self, catalog: Mapping[str, Table]) -> bool:
        """True when every fingerprinted table still has its compile-time shape."""
        for name, signature in self.schemas.items():
            table = catalog.get(name)
            if table is None or table.schema_signature() != signature:
                return False
        return True

    def has_plans(self) -> bool:
        return any(item.plan is not None for item in self.items)


def _referenced_tables(statement: Statement) -> set[str]:
    """Stored-table names a plannable statement's scans resolve against.

    Delegates to the rewriter's walker, which resolves CTE names exactly as
    compiled plans do.
    """
    if isinstance(statement, (Select, WithSelect)):
        return referenced_stored_tables(statement)
    if isinstance(statement, CreateTableAs):
        return referenced_stored_tables(statement.query)
    return set()


class PlanCache:
    """An LRU cache of compiled SQL scripts, keyed by the exact SQL text.

    Plans hold table names only (data is re-resolved per execution), so one
    cache can safely serve many :class:`MemDatabase` instances — that is what
    lets every sweep point's fresh database reuse the previous point's plans.
    Because different databases (or a DROP + CREATE) can put a structurally
    different table under the same name, every hit is additionally validated
    against the entry's schema fingerprint (see :class:`CachedScript`): a
    mismatch counts as an invalidation, evicts the entry and recompiles.

    Entries live in two independent LRU tiers: scripts holding at least one
    compiled plan (the hot CTE / CREATE-AS queries) and parse-only scripts
    (repeated DDL and INSERT texts, which only save tokenize/parse work).
    A sweep's stream of single-use INSERT literals can therefore never evict
    the reusable query plans it runs between them.  ``maxsize`` bounds each
    tier separately, so the cache holds at most ``2 * maxsize`` entries.

    All operations take an internal lock: the process-wide shared cache is
    hit concurrently by the job service's worker threads, and OrderedDict
    move-to-end / eviction are not atomic.  Cached plans themselves are
    immutable after insertion, so handing the same entry to two threads is
    safe (plans hold table names, never data).
    """

    __slots__ = (
        "maxsize",
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "_plans",
        "_parsed",
        "_lock",
    )

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._plans: OrderedDict[str, CachedScript] = OrderedDict()
        self._parsed: OrderedDict[str, CachedScript] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, sql: str, catalog: Mapping[str, Table] | None = None) -> CachedScript | None:
        """The cached compilation of a script, updating LRU order and stats.

        ``catalog`` (the calling database's tables) enables the schema
        fingerprint check; a stale entry is dropped and reported as a miss.
        """
        return self.get_with_state(sql, catalog)[0]

    def get_with_state(
        self, sql: str, catalog: Mapping[str, Table] | None = None
    ) -> "tuple[CachedScript | None, str]":
        """Like :meth:`get`, also reporting the lookup's provenance.

        The second element is ``hit`` / ``stale`` / ``miss`` —
        what :meth:`peek_state` would have said, but computed inside the one
        real lookup so a traced execution does not pay the schema-fingerprint
        validation twice.
        """
        with self._lock:
            for store in (self._plans, self._parsed):
                entry = store.get(sql)
                if entry is not None:
                    if catalog is not None and not entry.is_valid(catalog):
                        del store[sql]
                        self.invalidations += 1
                        self.misses += 1
                        return None, "stale"
                    store.move_to_end(sql)
                    self.hits += 1
                    return entry, "hit"
            self.misses += 1
            return None, "miss"

    def peek_state(
        self,
        sql: str,
        catalog: Mapping[str, Table] | None = None,
        flavor: bool = True,
    ) -> str:
        """Provenance of a text without touching counters: hit / stale / miss.

        ``flavor`` is ignored: there is one compilation flavor.  The
        benchmark harness still passes :attr:`MemDatabase.plan_flavor`.
        """
        with self._lock:
            for store in (self._plans, self._parsed):
                entry = store.get(sql)
                if entry is not None:
                    if catalog is not None and not entry.is_valid(catalog):
                        return "stale"
                    return "hit"
            return "miss"

    def peek_entry(self, sql: str) -> "CachedScript | None":
        """The cached entry without touching counters or LRU order.

        The slow-query log's plan-snapshot provider uses this: rendering a
        forensic EXPLAIN for an already-executed query must not inflate hit
        statistics or keep the entry artificially warm.  Stale entries are
        still returned — the snapshot describes the plan that actually ran.
        """
        with self._lock:
            for store in (self._plans, self._parsed):
                entry = store.get(sql)
                if entry is not None:
                    return entry
            return None

    #: Parse-only scripts longer than this are not cached: a dense
    #: initial-state INSERT can carry 2^n literal rows, and pinning its AST in
    #: the process-wide cache would hold megabytes for a text that is usually
    #: unique anyway.  Repeated small gate INSERTs stay comfortably below.
    PARSE_ONLY_MAX_SQL_CHARS = 8192

    def put(self, sql: str, entry: CachedScript) -> None:
        """Insert a compiled script, evicting the least recently used of its tier."""
        if self.maxsize <= 0:
            return
        if entry.has_plans():
            store = self._plans
        else:
            if len(sql) > self.PARSE_ONLY_MAX_SQL_CHARS:
                return
            store = self._parsed
        with self._lock:
            store[sql] = entry
            store.move_to_end(sql)
            while len(store) > self.maxsize:
                store.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._plans.clear()
            self._parsed.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus the current per-tier sizes."""
        with self._lock:
            return {
                "size": len(self._plans) + len(self._parsed),
                "planned": len(self._plans),
                "parse_only": len(self._parsed),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans) + len(self._parsed)

    def __contains__(self, sql: str) -> bool:
        """True when the text is cached."""
        with self._lock:
            return sql in self._plans or sql in self._parsed


#: Process-wide cache shared by every MemDatabase that is not given its own.
_SHARED_PLAN_CACHE = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide plan cache (what sweeps across fresh databases reuse)."""
    return _SHARED_PLAN_CACHE


def _literal_value(expression: Expression) -> object:
    """Evaluate a literal (or signed literal) appearing in INSERT ... VALUES."""
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, UnaryOp) and isinstance(expression.operand, Literal):
        value = expression.operand.value
        if expression.operator == "-":
            return -value  # type: ignore[operator]
        if expression.operator == "+":
            return value
    raise SQLExecutionError("INSERT ... VALUES only accepts literal values")


class MemDatabase:
    """An in-memory columnar SQL database (the offline DuckDB substitute).

    Parameters
    ----------
    plan_cache:
        The :class:`PlanCache` compiled statements are memoized in.  Defaults
        to the process-wide shared cache so plans survive database teardown
        (a fresh database per sweep point still hits warm plans); pass
        ``PlanCache(0)`` to disable caching or a private instance to isolate.
    enable_tracing / tracer:
        Span-based query tracing (see :mod:`repro.obs`).  An explicit
        ``tracer`` wins; otherwise ``enable_tracing=True`` attaches the
        process-shared tracer, ``False`` disables tracing, and ``None``
        (the default) follows ``REPRO_TRACE`` (off when unset).  Every
        traced execution produces a span tree — cache provenance, parse /
        optimize (rewrite) / plan stages on cold compilations, per-block and
        per-operator execute spans whose row counts match EXPLAIN ANALYZE
        actuals exactly — dispatched to the tracer's ring buffer, slow-query
        log and export sinks.  Disabled tracing costs one branch per
        ``execute``.
    """

    def __init__(
        self,
        plan_cache: PlanCache | None = None,
        enable_tracing: bool | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._tables: dict[str, Table] = {}
        self._plan_cache = _SHARED_PLAN_CACHE if plan_cache is None else plan_cache
        # Every counter starts at zero, so engine_stats() has one key set
        # whatever has run.
        self._optimizer_counters: dict[str, int] = dict.fromkeys(RewriteLog().as_dict(), 0)
        if tracer is not None:
            self._tracer: Tracer | None = tracer
        else:
            if enable_tracing is None:
                enable_tracing = bool(tracing_env_enabled())
            self._tracer = shared_tracer() if enable_tracing else None

    @property
    def plan_cache(self) -> PlanCache:
        """The plan cache this database compiles into."""
        return self._plan_cache

    @property
    def plan_flavor(self) -> bool:
        """Always True: there is one compilation flavor.

        Kept for the benchmark harness, which passes it to
        :meth:`PlanCache.peek_state`.
        """
        return True

    @property
    def tracer(self) -> Tracer | None:
        """The tracer executions record spans into (None = tracing disabled)."""
        return self._tracer

    def engine_stats(self) -> dict:
        """Every subsystem's statistics as one versioned document.

        The only producer of it (see :mod:`repro.obs.schema`):
        ``schema_version`` plus the ``plan_cache``, ``optimizer``,
        ``storage`` and ``tracing`` sections.
        Its key set follows from the configuration alone, never from what
        has run.  ``storage["dictionary_rebuilds"]`` sums every column of
        every table; per-table detail is ``table(name).storage_stats()``.
        """
        tables = {name: table.storage_stats() for name, table in self._tables.items()}
        return {
            "schema_version": ENGINE_STATS_SCHEMA_VERSION,
            "plan_cache": self._plan_cache.stats(),
            "optimizer": {"counters": dict(self._optimizer_counters)},
            "storage": {
                "total_bytes": sum(stats["total_bytes"] for stats in tables.values()),
                "dictionary_rebuilds": sum(
                    column["dictionary_rebuilds"]
                    for stats in tables.values()
                    for column in stats["columns"].values()
                ),
                "tables": tables,
            },
            "tracing": self._tracer.stats() if self._tracer is not None else {"enabled": False},
        }

    def _record_report(self, report: RewriteLog) -> None:
        for key, value in report.as_dict().items():
            self._optimizer_counters[key] += value

    # ------------------------------------------------------------- catalogue

    def table_names(self) -> list[str]:
        """Names of all stored tables."""
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        """True if the table exists."""
        return name in self._tables

    def table(self, name: str) -> Table:
        """Direct access to a stored table (read-only use expected)."""
        if name not in self._tables:
            raise SQLExecutionError(f"no such table: {name}")
        return self._tables[name]

    def row_count(self, name: str) -> int:
        """Row count of a table."""
        return self.table(name).num_rows

    def estimated_bytes(self, name: str | None = None) -> int:
        """Approximate bytes held by one table (or the whole catalog)."""
        if name is not None:
            return self.table(name).estimated_bytes()
        return sum(table.estimated_bytes() for table in self._tables.values())

    def load_table(self, name: str, columns: Mapping[str, np.ndarray]) -> Table:
        """Create ``name`` from column arrays: ``CREATE TABLE`` + ``INSERT`` in one step.

        The columnar way in.  The catalog ends up exactly as if the
        equivalent DDL and INSERT texts had been executed — same schema
        signature, same storage — but nothing is
        tokenized or parsed and the plan cache is not touched, so a sweep
        point swapping its gate tables pays for the rows, not for a
        program text describing them.  Integer arrays store as ``BIGINT``,
        float arrays as ``DOUBLE`` (NaN is NULL), ``str``/``None`` arrays
        as ``TEXT`` (dictionary-encoded).  The arrays
        are copied.  An existing name, columns of unequal length and
        arrays that fit no column type raise :class:`SQLExecutionError`
        and leave the catalog unchanged.
        """
        if name in self._tables:
            raise SQLExecutionError(f"table {name!r} already exists")
        encoded: dict[str, EncodedColumn] = {}
        for column, values in columns.items():
            values = self._storable(name, column, values)
            # CREATE TABLE's empty column, then INSERT's append.
            encoded[column] = EncodedColumn.empty(values.dtype)
            encoded[column].append(values)
        self._tables[name] = table = Table(name, encoded)
        return table

    @staticmethod
    def _storable(table: str, column: str, values) -> np.ndarray:
        """A copy of ``values`` as the int64 / float64 / object vector of a column type."""
        array = np.asarray(values)
        kind = array.dtype.kind
        storable = array.ndim == 1 and (
            kind in "ifU"
            # One pass at C speed: text loads run to millions of rows.
            or (kind == "O" and all(
                issubclass(found, str) or found is type(None)
                for found in set(map(type, array.tolist()))
            ))
        )
        if not storable:
            raise SQLExecutionError(
                f"cannot load {array.dtype} values of shape {array.shape} "
                f"into column {column!r} of table {table!r}"
            )
        return array.astype(np.int64 if kind == "i" else np.float64 if kind == "f" else object)

    def clear(self) -> None:
        """Drop every table."""
        self._tables.clear()

    # -------------------------------------------------------------- execution

    def execute(self, sql: str) -> QueryResult:
        """Execute a SQL script; returns the result of the last statement.

        Scripts are compiled once (parse + rewrite + plan) and memoized in
        the plan cache; repeated executions of the same text re-bind the
        cached plans against the current catalog after the schema
        fingerprint of every referenced table revalidates.
        """
        if self._tracer is None:
            return self._execute_script(sql)
        return self._execute_traced(sql)

    def _execute_traced(self, sql: str) -> QueryResult:
        """The :meth:`execute` body under a root ``query`` span.

        The root records cache provenance (reported by the one real lookup
        inside :meth:`_execute_script`), the result row count, and a lazy
        plan-snapshot provider the slow-query log renders only when its
        threshold trips.
        """
        tracer = self._tracer
        with tracer.query(sql) as root:
            result = self._execute_script(sql, tracer=tracer)
            root.set(rows=len(result), rowcount=result.rowcount)
            root.plan_provider = lambda: self._render_plan_snapshot(sql)
        return result

    def _render_plan_snapshot(self, sql: str) -> list[str]:
        """EXPLAIN-style lines for a script's cached plans (slow-log forensics)."""
        entry = self._plan_cache.peek_entry(sql)
        if entry is None:
            return ["<plan not cached>"]
        state = self._plan_cache.peek_state(sql, self._tables)
        lines: list[str] = []
        for item in entry.items:
            lines.extend(render_explain(sql, item.report, item.plan, state, None))
        return lines

    def _execute_script(self, sql: str, tracer: Tracer | None = None) -> QueryResult:
        if tracer is not None:
            cached, cache_state = self._plan_cache.get_with_state(sql, self._tables)
            root = current_span()
            if root is not None:
                root.set(cache=cache_state)
        else:
            cached = self._plan_cache.get(sql, self._tables)
        result = QueryResult([])
        if cached is not None:
            for item in cached.items:
                result = self._execute_compiled(item.statement, item.plan, tracer=tracer)
            return result
        # Cold path: rewrite + compile each statement just before executing
        # it, so a compile-time error in statement k still leaves the effects
        # of statements 1..k-1.
        # Only fully successful scripts enter the cache; EXPLAIN statements
        # are never cached (their output depends on live state).
        if tracer is not None:
            with tracer.span("parse") as span:
                tokens = scan(sql)
                statements = Parser(tokens, sql).parse_script()
                span.set(chars=len(sql), tokens=len(tokens) - 1, statements=len(statements))
        else:
            statements = parse_sql(sql)
        cacheable = not any(isinstance(s, Explain) for s in statements)
        items: list[CompiledStatement] = []
        schemas: dict[str, tuple] = {}
        # Tables the script itself has created/dropped *so far*: statements
        # after the DDL are compiled against the script's own product (which
        # a replay reproduces identically), so only references made *before*
        # any in-script DDL on a table fingerprint its pre-script schema.
        touched_by_ddl: set[str] = set()
        for statement in statements:
            if isinstance(statement, Explain):
                result = self._explain(statement)
                continue
            compiled = self._compile_one(statement, schemas, touched_by_ddl, tracer=tracer)
            items.append(compiled)
            result = self._execute_compiled(compiled.statement, compiled.plan, tracer=tracer)
            if isinstance(statement, (CreateTable, CreateTableAs, DropTable)):
                touched_by_ddl.add(statement.name)
        if cacheable:
            self._plan_cache.put(sql, CachedScript(items, schemas))
        return result

    def _compile_one(
        self,
        statement: Statement,
        schemas: dict[str, tuple],
        touched_by_ddl: set[str],
        tracer: Tracer | None = None,
    ) -> CompiledStatement:
        """Rewrite + plan one statement, accumulating its schema fingerprint.

        Shared by :meth:`execute`'s cold path and :meth:`prepare` so the
        cache-entry construction (plans, report recording, fingerprinting)
        can never diverge between the two.
        """
        if tracer is not None:
            with tracer.span("optimize", statement=type(statement).__name__) as span:
                optimized, report = rewrite_statement(statement)
                span.set(**{k: v for k, v in report.as_dict().items() if v})
            with tracer.span("plan") as span:
                plan = compile_statement(optimized)
                if plan is not None:
                    span.set(kind=type(plan).__name__)
        else:
            optimized, report = rewrite_statement(statement)
            plan = compile_statement(optimized)
        self._record_report(report)
        if plan is not None:
            for name in _referenced_tables(optimized) - touched_by_ddl:
                if name in self._tables and name not in schemas:
                    schemas[name] = self._tables[name].schema_signature()
        return CompiledStatement(optimized, plan, report)

    def prepare(self, sql: str) -> str:
        """Compile a query script into the plan cache without executing it.

        The prepared-statement entry point of the compile–bind–execute API:
        the backend sets up its gate/state tables, hands the hot CTE query
        here, and every later execution of the identical text (all sweep
        points of a circuit family) starts as a plan-cache hit.  Only pure
        query statements (SELECT / WITH ... SELECT) are preparable — scripts
        with DDL or DML interleave compilation with their own side effects
        and must go through :meth:`execute`.

        Returns ``"hit"`` when the text was already cached and ``"prepared"``
        after a fresh compilation.
        """
        if self._plan_cache.get(sql, self._tables) is not None:
            return "hit"
        statements = parse_sql(sql)
        offenders = [type(s).__name__ for s in statements if not isinstance(s, (Select, WithSelect))]
        if offenders:
            raise SQLExecutionError(
                f"prepare only supports SELECT/WITH query statements, got {offenders}"
            )
        items: list[CompiledStatement] = []
        schemas: dict[str, tuple] = {}
        for statement in statements:
            items.append(self._compile_one(statement, schemas, set()))
        self._plan_cache.put(sql, CachedScript(items, schemas))
        return "prepared"

    def _execute_compiled(
        self,
        statement: Statement,
        plan: "CompiledScript | CompiledCreateTableAs | None",
        tracer: Tracer | None = None,
    ) -> QueryResult:
        if plan is None:
            if tracer is not None:
                with tracer.span("execute", statement=type(statement).__name__) as span:
                    result = self._execute_statement(statement)
                    span.set(rowcount=result.rowcount)
                return result
            return self._execute_statement(statement)
        if tracer is not None:
            with tracer.span("execute", statement=type(statement).__name__) as span:
                result = self._run_compiled(plan, tracer)
                span.set(rows=len(result), rowcount=result.rowcount)
            return result
        return self._run_compiled(plan, None)

    def _run_compiled(
        self, plan: "CompiledScript | CompiledCreateTableAs", tracer: Tracer | None
    ) -> QueryResult:
        if isinstance(plan, CompiledCreateTableAs):
            return self._run_compiled_create(plan, tracer=tracer)
        return QueryResult(*plan.execute(self._tables, tracer=tracer))

    def executemany(self, statements: list[str]) -> list[QueryResult]:
        """Execute several scripts, returning one result per script."""
        return [self.execute(sql) for sql in statements]

    def _execute_statement(self, statement: Statement) -> QueryResult:
        """Run a statement that has no compiled plan (DDL, DML)."""
        if isinstance(statement, CreateTable):
            return self._create_table(statement)
        if isinstance(statement, Insert):
            return self._insert(statement)
        if isinstance(statement, Delete):
            return self._delete(statement)
        if isinstance(statement, DropTable):
            return self._drop(statement)
        raise SQLExecutionError(f"unsupported statement type {type(statement).__name__}")

    # --------------------------------------------------------------- handlers

    def _run_compiled_create(
        self,
        plan: CompiledCreateTableAs,
        trace=None,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """``CREATE TABLE AS``: store a query's result columns as a new table.

        The vectors are copied: a block that passes a column through
        untouched returns the source table's own array, and a stored table
        must never alias another table's storage.
        """
        name = plan.name
        if name in self._tables:
            raise SQLExecutionError(f"table {name!r} already exists")
        names, vectors = plan.script.execute(self._tables, trace=trace, tracer=tracer)
        if len(set(names)) != len(names):
            raise SQLExecutionError(f"duplicate column name in CREATE TABLE {name} AS: {names}")
        self._tables[name] = table = Table(
            name, {column: values.copy() for column, values in zip(names, vectors)}
        )
        return QueryResult([], rowcount=table.num_rows)

    def _create_table(self, statement: CreateTable) -> QueryResult:
        if statement.name in self._tables:
            raise SQLExecutionError(f"table {statement.name!r} already exists")
        column_types = [(column.name, column.type_name) for column in statement.columns]
        self._tables[statement.name] = Table.empty(statement.name, column_types)
        return QueryResult([], rowcount=0)

    def _insert(self, statement: Insert) -> QueryResult:
        table = self.table(statement.table)
        rows = [tuple(_literal_value(value) for value in row) for row in statement.rows]
        inserted = table.append_rows(statement.columns, rows)
        return QueryResult([], rowcount=inserted)

    def _delete(self, statement: Delete) -> QueryResult:
        table = self.table(statement.table)
        if statement.where is None:
            deleted = table.num_rows
            mask = np.ones(table.num_rows, dtype=bool)
        else:
            frame = table.frame(table.name)
            evaluator = ExpressionEvaluator(frame, table.num_rows)
            mask = evaluator.evaluate(statement.where).astype(bool, copy=False)
            deleted = int(mask.sum())
        table.delete_where(mask)
        return QueryResult([], rowcount=deleted)

    def _drop(self, statement: DropTable) -> QueryResult:
        if statement.name not in self._tables:
            if statement.if_exists:
                return QueryResult([], rowcount=0)
            raise SQLExecutionError(f"no such table: {statement.name}")
        del self._tables[statement.name]
        return QueryResult([], rowcount=0)

    # ---------------------------------------------------------------- explain

    def _explain(self, statement: Explain) -> QueryResult:
        """EXPLAIN [ANALYZE]: rewrite, compile, (optionally execute), render.

        Plain EXPLAIN never executes the statement; EXPLAIN ANALYZE executes
        it for real (DML included, matching PostgreSQL) and reports actual
        per-block cardinalities plus wall time.
        """
        cache_state = self._plan_cache.peek_state(statement.inner_sql, self._tables)
        optimized, report = rewrite_statement(statement.statement)
        plan = compile_statement(optimized)
        self._record_report(report)

        actual = None
        if statement.analyze:
            started = time.perf_counter()
            if isinstance(plan, CompiledScript):
                cardinalities, rowcount = self._run_script_with_actuals(plan)
            elif isinstance(plan, CompiledCreateTableAs):
                cardinalities, rows = self._run_create_with_actuals(plan)
                rowcount = rows
            else:
                executed = self._execute_statement(optimized)
                cardinalities, rowcount = (), executed.rowcount
            actual = ActualRun(
                seconds=time.perf_counter() - started,
                cardinalities=tuple(cardinalities),
                rowcount=rowcount,
            )

        lines = render_explain(statement.inner_sql, report, plan, cache_state, actual)
        return QueryResult(["plan"], [np.array(lines, dtype=object)])

    def _run_script_with_actuals(self, script: CompiledScript) -> tuple[list[tuple[str, int]], int]:
        """Execute a compiled script, capturing per-block actual cardinalities."""
        cardinalities: list[tuple[str, int]] = []
        _names, vectors = script.execute(
            self._tables,
            trace=lambda label, rows: cardinalities.append((label, rows)),
        )
        return cardinalities, len(vectors[0]) if vectors else 0

    def _run_create_with_actuals(self, plan: CompiledCreateTableAs) -> tuple[list[tuple[str, int]], int]:
        cardinalities: list[tuple[str, int]] = []
        result = self._run_compiled_create(
            plan,
            trace=lambda label, rows: cardinalities.append((label, rows)),
        )
        return cardinalities, result.rowcount
