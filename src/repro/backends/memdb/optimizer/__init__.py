"""Logical rewrites for the embedded columnar engine, and EXPLAIN.

The subsystem sits between the parser and the planner::

    tokenizer -> parser -> [optimizer] -> planner -> executor

The engine calls :func:`~.rewrite.rewrite_statement` with a parsed
statement and gets back a rewritten statement and a
:class:`~.rewrite.RewriteLog` of what was rewritten.  There are no statistics and no cost model: on the
translator's SQL every join has two tables, so there is no join order to
choose, and the planner picks its physical operators by shape (the fused
join-aggregate for the gate step) and at run time (top-k when ``LIMIT``
keeps fewer rows than the input has).  A circuit's row counts are known
before any SQL runs: see :meth:`repro.sql.translator.SQLTranslation.row_bounds`.

Components
----------

* :mod:`.rewrite` — unary-literal folding, single-use CTE inlining and
  the stored-table walker the plan cache's schema fingerprint uses;
* :mod:`.explain` — ``EXPLAIN [ANALYZE]`` report structures and rendering.
"""

from __future__ import annotations

from .explain import ActualRun, render_explain
from .rewrite import RewriteLog, rewrite_statement

__all__ = ["ActualRun", "RewriteLog", "render_explain", "rewrite_statement"]
