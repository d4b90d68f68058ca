"""A translation renders its query texts once; all texts are the recorded ones.

``fixtures/translation_texts.json`` was recorded at 718a2df, where every call
rendered afresh (see ``ast_identity.py``).  SQLite and DuckDB are sent these
texts and the memdb plan cache keys on them, so keeping the CTE query and the
materialized steps on the translation must not move a byte — and must not let one caller's edits of a
returned list reach the next caller.
"""

from __future__ import annotations

import json

import pytest
from ast_identity import DIALECTS, TEXT_FIXTURE, generated_corpus, text_hash

from repro.circuits import ghz_circuit, qft_circuit
from repro.sql.translator import SQLTranslator, translate_circuit


@pytest.mark.parametrize("dialect", DIALECTS)
def test_generated_texts_are_the_recorded_texts(dialect):
    recorded = json.loads(TEXT_FIXTURE.read_text())[dialect]
    corpus = generated_corpus(dialect)
    assert sorted(corpus) == sorted(recorded)
    changed = [name for name, texts in corpus.items() if text_hash(texts) != recorded[name]]
    assert not changed


@pytest.mark.parametrize("dialect", DIALECTS)
@pytest.mark.parametrize("fuse", [False, True], ids=["plain", "fused"])
def test_a_second_call_returns_the_first_calls_texts(dialect, fuse):
    translator = SQLTranslator(dialect, prune_epsilon=1e-12, fuse=fuse)
    rendered_once = translator.translate(qft_circuit(4))
    rendered_twice = translator.translate(qft_circuit(4))
    calls = {
        "cte-compact": lambda t: t.cte_query(pretty=False),
        "cte-pretty": lambda t: t.cte_query(),
        "setup": lambda t: t.setup_statements(),
        "materialized": lambda t: t.materialized_statements(),
        "materialized-kept-temp": lambda t: t.materialized_statements(
            keep_intermediate=True, temporary=True
        ),
        "script-cte": lambda t: t.full_script(),
        "script-materialized": lambda t: t.full_script(mode="materialized"),
    }
    for name, call in calls.items():
        call(rendered_twice)
        assert call(rendered_twice) == call(rendered_once), name
    assert rendered_twice.cte_query(pretty=False) is rendered_twice.cte_query(pretty=False)
    # The arguments are part of what is kept, not just the method.
    assert rendered_twice.cte_query(pretty=False) != rendered_twice.cte_query(pretty=True)
    kept = rendered_twice.materialized_statements(keep_intermediate=True)
    assert [item["kind"] for item in kept].count("drop") == 0
    assert [item["kind"] for item in rendered_twice.materialized_statements()].count("drop") > 0


def test_returned_lists_are_the_callers_to_edit():
    translation = translate_circuit(ghz_circuit(3), dialect="sqlite")
    setup = translation.setup_statements()
    pristine = list(setup)
    # What perf/workloads.py does for the SQLite sweep: one script, query last.
    setup.append(translation.cte_query(pretty=False))
    setup[0] = "DROP TABLE everything"
    assert translation.setup_statements() == pristine

    steps = translation.materialized_statements()
    pristine = [dict(item) for item in steps]
    steps[0]["sql"] = "DROP TABLE everything"
    steps[0]["rows"] = 2
    del steps[1:]
    assert translation.materialized_statements() == pristine
    assert translation.materialized_statements()[0] is not translation.materialized_statements()[0]
