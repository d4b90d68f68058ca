"""The ``engine_stats()`` document: its version and its flat view.

:meth:`repro.backends.memdb.engine.MemDatabase.engine_stats` is the one
producer of the document — ``schema_version`` plus the ``plan_cache``,
``optimizer``, ``storage`` and ``tracing`` sections, with roll-ups such as
``storage["dictionary_rebuilds"]`` (summed across every column of every
table).  The backend and the session hand the engine's document through
unchanged.  This module holds what readers share:

* :data:`ENGINE_STATS_SCHEMA_VERSION`, which readers can branch on;
* :func:`flatten_counters`, which projects the nested document onto flat
  dotted names (``plan_cache.hits``, ``storage.dictionary_rebuilds``) — the
  vocabulary the text renderers, metrics and JSONL exports share.
"""

from __future__ import annotations

from numbers import Number

#: Bumped when sections or keys are added/renamed/removed; readers can
#: branch on it.  Version 2 dropped ``storage["dict_encoding"]`` and each
#: table's encoding flag (stored TEXT is always dictionary codes).
#: Version 3 dropped the ``optimizer["adaptive"]`` alias (``adaptive`` is
#: top-level only) and reports every optimizer counter from zero.
#: Version 4 dropped the ``adaptive`` and ``parallel`` sections, the
#: ``adaptive_replans`` / ``feedback_corrections`` / ``feedback_decays``
#: optimizer counters and the statistics catalog's ``corrections``,
#: ``feedback_count`` and ``decay_count``.
#: Version 5 dropped ``optimizer["enabled"]``, ``optimizer["statistics"]``
#: (there is no statistics catalog) and the ``predicates_pushed``,
#: ``cte_filters_pushed``, ``columns_pruned`` and ``join_reorders``
#: counters; ``optimizer["counters"]`` holds ``constant_folds`` and
#: ``ctes_inlined``.
ENGINE_STATS_SCHEMA_VERSION = 5


#: Per-entity maps rather than counters: per-table storage and trace sinks.
_PER_ENTITY_PATHS = frozenset({
    "storage.tables",
    "tracing.sinks",
})


def flatten_counters(stats: dict, prefix: str = "") -> dict[str, float]:
    """Project the nested stats document onto flat dotted numeric names.

    Booleans flatten to 0/1 (``tracing.enabled``); non-numeric leaves and
    per-entity detail are dropped.  The result is ready to diff, render as
    a table, or mirror into a :class:`~.metrics.MetricsRegistry`.
    """
    flat: dict[str, float] = {}
    for key, value in stats.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if name in _PER_ENTITY_PATHS:
            continue
        if isinstance(value, dict):
            flat.update(flatten_counters(value, name))
        elif isinstance(value, bool):
            flat[name] = 1 if value else 0
        elif isinstance(value, Number):
            flat[name] = value
    return flat
