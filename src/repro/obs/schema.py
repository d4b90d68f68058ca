"""The unified ``engine_stats()`` schema.

Five subsystems grew five ad-hoc stats dicts with drifting conventions
(``invalidations`` on the plan cache vs ``replans`` in two places vs
``dictionary_rebuilds`` buried three levels deep per column).  This module
is the single place that shape is defined:

* :func:`unified_engine_stats` assembles the subsystem dicts into one
  versioned document — canonical top-level sections ``plan_cache`` /
  ``optimizer`` / ``adaptive`` / ``parallel`` / ``storage`` / ``tracing``
  plus roll-up aggregates (e.g. ``storage["dictionary_rebuilds"]`` summed
  across every column of every table, so callers stop re-deriving it).
  Back-compat aliases are kept *by reference*: ``optimizer["adaptive"]``
  remains the same dict object as the promoted top-level ``adaptive``
  section, so pre-existing readers (``session.adaptive_stats()``) keep
  working without a copy drifting out of sync.
* :func:`flatten_counters` projects the nested document onto flat dotted
  names (``plan_cache.hits``, ``storage.dictionary_rebuilds``) — the
  vocabulary the metrics registry, text renderers and JSONL exports share.
"""

from __future__ import annotations

from numbers import Number

#: Bumped when sections or keys are added/renamed/removed; readers can
#: branch on it.  Version 2 dropped ``storage["dict_encoding"]`` and each
#: table's encoding flag (stored TEXT is always dictionary codes).
ENGINE_STATS_SCHEMA_VERSION = 2


def _aggregate_dictionary_rebuilds(storage: dict) -> int:
    """Total dictionary rebuilds across every column of every table."""
    total = 0
    for table_stats in storage.get("tables", {}).values():
        for column_stats in table_stats.get("columns", {}).values():
            total += int(column_stats.get("dictionary_rebuilds", 0))
    return total


def unified_engine_stats(
    plan_cache: dict,
    optimizer: dict,
    parallel: dict,
    storage: dict,
    tracing: dict | None = None,
) -> dict:
    """Assemble subsystem stats into the versioned unified document.

    The inputs are the subsystems' own ``*_stats()`` dicts; they are
    incorporated as-is (no copies) so identity-based back-compat aliases
    hold.  ``tracing`` is the tracer's ``stats()`` (or None when tracing is
    disabled, rendered as ``{"enabled": False}``).
    """
    adaptive = optimizer.get("adaptive", {})
    storage = dict(storage)
    storage["dictionary_rebuilds"] = _aggregate_dictionary_rebuilds(storage)
    return {
        "schema_version": ENGINE_STATS_SCHEMA_VERSION,
        "plan_cache": plan_cache,
        "optimizer": optimizer,
        # Promoted from optimizer["adaptive"] (which stays as an alias to
        # this same object): the feedback loop is a first-class subsystem.
        "adaptive": adaptive,
        "parallel": parallel,
        "storage": storage,
        "tracing": tracing if tracing is not None else {"enabled": False},
    }


#: Sections whose scalar leaves become dotted counters.  Deep sub-documents
#: that are per-entity detail rather than counters (per-table storage,
#: adaptive event lists, statistics-catalog summaries) are skipped.
_FLATTEN_SKIP_KEYS = frozenset({"tables", "events", "statistics", "sinks"})


def flatten_counters(stats: dict, prefix: str = "") -> dict[str, float]:
    """Project the nested stats document onto flat dotted numeric names.

    Booleans flatten to 0/1 (``parallel.enabled``); non-numeric leaves and
    per-entity detail sections are dropped.  The result is ready to diff,
    render as a table, or mirror into a :class:`~.metrics.MetricsRegistry`.
    """
    flat: dict[str, float] = {}
    for key, value in stats.items():
        if key in _FLATTEN_SKIP_KEYS:
            continue
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_counters(value, name))
        elif isinstance(value, bool):
            flat[name] = 1 if value else 0
        elif isinstance(value, Number):
            flat[name] = value
    return flat
