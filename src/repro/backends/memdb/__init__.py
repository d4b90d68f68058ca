"""Embedded columnar SQL engine (numpy-vectorized DuckDB substitute).

Execution architecture
----------------------

Statements flow through four layers:

1. **Parse** (:mod:`.tokenizer`, :mod:`.parser`): SQL text to frozen AST
   dataclasses (:mod:`.ast_nodes`).
2. **Optimize** (:mod:`.optimizer`): the cost-based optimizer rewrites the
   AST (constant folding, predicate pushdown through joins and CTEs,
   projection pruning, single-use CTE inlining), orders joins greedily by
   UES-style upper-bound cardinality estimates from the per-table
   statistics catalog (refreshed via ``ANALYZE``, invalidated on DML), and
   hands the planner a cost model for physical choices.  ``EXPLAIN
   [ANALYZE]`` renders every decision plus estimated-vs-actual
   cardinalities and plan-cache provenance.
3. **Plan** (:mod:`.planner`): optimized ``Select`` / ``WithSelect`` /
   ``CREATE TABLE .. AS SELECT`` ASTs compile into physical plans — operator
   pipelines of (filtered) scan → hash-join → filter → project /
   hash-aggregate → distinct/order/limit, with all per-statement analysis
   (aggregate detection, join-side splitting, projection naming) done once
   at compile time.  The paper's per-gate shape ``SELECT key, SUM(..),
   SUM(..) FROM T JOIN G .. GROUP BY key`` is *eligible* for a fused
   join-aggregate operator that pushes the grouped SUMs through the hash
   join in one pass; whether it is used is decided by the cost model, not
   the syntax.
4. **Execute** (:mod:`.executor`): vectorized numpy operators over columnar
   :class:`~.table.Table` storage.  Every query runs as a compiled plan;
   the engine runs the statement kinds without one (INSERT, DELETE, DDL)
   directly.  The differential tests compare results against ``sqlite3``.

Plan caching
------------

:class:`~.engine.MemDatabase` memoizes compiled scripts in an LRU
:class:`~.engine.PlanCache` keyed by the **exact SQL text** and validated
on every hit against a **schema fingerprint** (table name → column
names/dtypes) of the stored tables the plans reference.  Plans store table
*names*, never data — each execution re-resolves names against the current
catalog — so a cached plan re-binds to fresh gate/state tables, and one
process-wide cache (see :func:`~.engine.shared_plan_cache`) can serve every
database instance; the fingerprint check is what makes that safe when a
table is dropped and recreated with a different shape.  That is what makes
parameter sweeps cheap: each point re-executes byte-identical CTE /
CREATE-AS texts and skips tokenize/parse/optimize/plan entirely.  Cache
rules: entries are immutable (frozen ASTs + stateless plans); scripts that
raise (parse, compile or execution errors) are never cached, nor are
EXPLAIN / ANALYZE statements; plan-bearing and parse-only scripts evict LRU
in separate tiers of ``maxsize`` entries each, and oversized parse-only
texts are not cached at all; a ``PlanCache(0)`` disables caching.
"""

from .engine import MemDatabase, PlanCache, shared_plan_cache
from .executor import QueryResult
from .optimizer import CostModel, Optimizer, StatisticsCatalog
from .parser import parse_one, parse_sql
from .planner import compile_statement
from .table import Table
from .tokenizer import Token, tokenize

__all__ = [
    "MemDatabase",
    "PlanCache",
    "shared_plan_cache",
    "QueryResult",
    "CostModel",
    "Optimizer",
    "StatisticsCatalog",
    "parse_one",
    "parse_sql",
    "compile_statement",
    "Table",
    "Token",
    "tokenize",
]
