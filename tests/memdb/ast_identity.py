"""Corpus and fixture for the parser's AST-identity test.

``fixtures/ast_identity.json`` holds ``sha256(repr(parse_sql(text)))`` for
a corpus of SQL texts, recorded on a commit whose parser is trusted.  A
front-end change that is meant to keep every AST must reproduce every hash
(``test_ast_identity.py``); a change that is meant to alter the grammar
regenerates the fixture on purpose::

    PYTHONPATH=src python tests/memdb/ast_identity.py --regenerate

``fixtures/translation_texts.json`` holds ``sha256`` of the generated texts
themselves, per dialect (``test_translation_texts.py``): the translator's
output is what SQLite and DuckDB are sent and what the plan cache keys on.
Its ``before_collapse`` section keeps the hashes recorded at 718a2df, before
diagonal gates were merged into blocks and SWAPs elided, so the test can pin
which texts that moved (only circuits with a diagonal or SWAP gate)::

    PYTHONPATH=src python tests/memdb/ast_identity.py --regenerate-texts

The corpus has three parts:

* ``generated`` — texts the translator emits for fixed circuits; only their
  names and hashes are stored, the texts are rebuilt at test time;
* ``stored`` — every distinct text the grammar fuzzer
  (``tests/properties/test_sql_fuzz.py``, fixed derivation) hands to the
  engine, plus the hand-written statements below; stored as text, because
  the fuzzer's derivation depends on the installed hypothesis version;
* ``changed`` — texts whose AST the *current* parser intentionally builds
  differently from the recorded one; the recorded hash is kept so the test
  can assert the difference is still there and still the only one.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.backends.memdb.parser import parse_sql
from repro.circuits import (
    ghz_circuit,
    qaoa_maxcut_circuit,
    qft_circuit,
    random_sparse_circuit,
    w_state_circuit,
)
from repro.sql.translator import SQLTranslator

FIXTURE = Path(__file__).parent / "fixtures" / "ast_identity.json"
#: ``sha256`` of every generated text per dialect (``--regenerate-texts``
#: rewrites it and keeps its ``before_collapse`` section).
TEXT_FIXTURE = Path(__file__).parent / "fixtures" / "translation_texts.json"
DIALECTS = ("memdb", "sqlite", "duckdb")
#: Corpus circuits with a diagonal or SWAP gate: the only ones whose texts
#: differ from ``before_collapse``.
COLLAPSING = ("qft5", "qaoa6", "sparse8")

#: Statement kinds the circuit and fuzz corpora do not reach: EXPLAIN
#: [ANALYZE], DDL and DML (every statement of ``test_parser.py``), and the
#: corners of the expression grammar.
HANDWRITTEN = [
    "SELECT s, r FROM T0",
    "SELECT 1 FROM t WHERE a & 3 = 2",
    "SELECT a & 1 << 2 FROM t",
    "SELECT s & ~6 FROM t",
    "SELECT a AS x, b y FROM t",
    "SELECT * FROM T0 JOIN H ON H.in_s = (T0.s & 1)",
    "SELECT s, SUM(r) FROM t GROUP BY s ORDER BY s DESC LIMIT 5",
    "SELECT COUNT(*) FROM t",
    "WITH a AS (SELECT 1), b AS (SELECT 2) SELECT * FROM b",
    "SELECT CASE WHEN a > 0 THEN 1 ELSE 0 END FROM t",
    "SELECT 1 FROM t WHERE a IN (1, 2) AND b IS NOT NULL",
    "SELECT DISTINCT s FROM t",
    "CREATE TABLE T0 (s BIGINT NOT NULL, r DOUBLE, i DOUBLE)",
    "CREATE TABLE T1 AS SELECT * FROM T0",
    "CREATE TEMP TABLE T1 AS SELECT 1",
    "CREATE TEMPORARY TABLE T2 AS WITH a AS (SELECT 1 AS x) SELECT x FROM a",
    "CREATE TABLE k (id INTEGER PRIMARY KEY, name TEXT NOT NULL PRIMARY KEY)",
    "INSERT INTO H (in_s, out_s, r, i) VALUES (0, 0, 0.7, 0.0), (1, 1, -0.7, 0.0)",
    "INSERT INTO t VALUES (1, 'it''s', NULL, -2.5E+4, .5, 1e-3)",
    "DELETE FROM T1 WHERE (r * r) + (i * i) <= 1e-12",
    "DELETE FROM T1",
    "DROP TABLE IF EXISTS T1",
    "DROP TABLE T1",
    "SELECT 1; SELECT 2;",
    "SELECT T0.s FROM T0",
    "EXPLAIN SELECT a FROM t",
    "EXPLAIN ANALYZE SELECT c.a FROM c WHERE c.a = 3 AND c.b = 3",
    "EXPLAIN CREATE TABLE copy AS SELECT T0.s AS s FROM T0",
    "EXPLAIN ANALYZE DELETE FROM t WHERE a = 1",
    "EXPLAIN INSERT INTO t (a, b) VALUES (9, 9.5)",
    "EXPLAIN DROP TABLE t;",
    "EXPLAIN SELECT t.a FROM t ORDER BY t.a LIMIT 1 ; SELECT 2",
    "SELECT t.*, u.a FROM t LEFT JOIN u ON t.a = u.a INNER JOIN v ON v.a = u.a",
    "SELECT a FROM t AS x JOIN u y ON x.a = y.a WHERE NOT x.a = 1 OR NOT NOT y.b < 2",
    "SELECT a FROM t WHERE a NOT IN (1, -2, 'x') AND b IS NULL IS NOT NULL",
    "SELECT - - a, + ~ b, -a * b, a - -b, ~a & b | c << 2 >> 1 FROM t",
    "SELECT a = b = c, a < b <> c, a <= b >= c != d FROM t",
    "SELECT a + b * c - d / e % f, (a + b) * c FROM t",
    "SELECT a || b, a || 'x' || b, (a || b) = 'ab' FROM t",
    "SELECT \"weird name\", `other`.x FROM `other` -- trailing comment",
    "SELECT COUNT(DISTINCT a), coalesce(a, b, 0), ROUND(a, 2), power(a, 2) FROM t HAVING SUM(a) > 1",
    "SELECT a FROM t ORDER BY a ASC, b DESC, c LIMIT - 1 OFFSET + 2.0",
    "SELECT CASE WHEN a THEN 1 WHEN b THEN 2 END, CASE WHEN a IS NULL THEN b ELSE c END FROM t",
]

#: Texts the current parser builds differently from the recorded one, on
#: purpose: ``||`` binds tighter than ``*`` (SQLite), it used to sit beside
#: ``+`` / ``-``.  Anything else that changes is a bug.
CHANGED = [
    "SELECT 2 * 3 || 4",
    "SELECT 1 + 2 || 3",
    "SELECT a * b || c, a || b * c, a / b || c FROM t",
    "SELECT a - b || c FROM t",
]


def ast_hash(*texts: str) -> str:
    """``sha256(repr(parse_sql(text)))``; several texts hash as one list."""
    rendered = "\n".join(repr(parse_sql(text)) for text in texts)
    return hashlib.sha256(rendered.encode()).hexdigest()


def text_hash(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def generated_corpus(dialect: str = "memdb") -> dict[str, list[str]]:
    """Name -> texts the translator emits for a fixed set of circuits."""
    circuits = {
        "ghz8": ghz_circuit(8),
        "qft5": qft_circuit(5),
        "qaoa6": qaoa_maxcut_circuit(6, p=1, gammas=[0.4], betas=[0.7]),
        "w4": w_state_circuit(4),
        "sparse8": random_sparse_circuit(8, 2, max_branching=2, seed=11),
    }
    corpus: dict[str, list[str]] = {}
    for name, circuit in circuits.items():
        for fuse in (False, True):
            translation = SQLTranslator(dialect, prune_epsilon=1e-12, fuse=fuse).translate(circuit)
            prefix = f"{name}/{'fused' if fuse else 'plain'}"
            corpus[f"{prefix}/cte-compact"] = [translation.cte_query(pretty=False)]
            corpus[f"{prefix}/cte-pretty"] = [translation.cte_query(pretty=True)]
            corpus[f"{prefix}/setup"] = translation.setup_statements()
            corpus[f"{prefix}/materialized"] = [
                item["sql"] for item in translation.materialized_statements()
            ] + [translation.final_select()]
            corpus[f"{prefix}/script"] = [translation.full_script()]
    return corpus


def load_fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def _fuzzer_texts() -> list[str]:
    """Every distinct text the fuzzer's tier-1 profile hands to the engine."""
    import pytest

    import repro.backends.memdb.engine as engine

    seen: dict[str, None] = {}
    original = engine.parse_sql

    def recording(sql: str):
        seen.setdefault(sql)
        return original(sql)

    engine.parse_sql = recording
    try:
        root = Path(__file__).resolve().parents[2]
        code = pytest.main(
            [str(root / "tests/properties/test_sql_fuzz.py"), "-q", "-p", "no:cacheprovider"]
        )
    finally:
        engine.parse_sql = original
    if code != 0:
        raise SystemExit(f"fuzzer run failed (exit {code}); fixture not written")
    return list(seen)


def regenerate() -> None:
    stored = list(dict.fromkeys(_fuzzer_texts() + HANDWRITTEN))
    fixture = {
        "generated": {name: ast_hash(*texts) for name, texts in generated_corpus().items()},
        "stored": [[text, ast_hash(text)] for text in stored],
        "changed": {text: ast_hash(text) for text in CHANGED},
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=0, ensure_ascii=False) + "\n")
    print(f"wrote {FIXTURE}: {len(fixture['generated'])} generated, {len(stored)} stored")


def regenerate_texts() -> None:
    fixture = {
        dialect: {name: text_hash(texts) for name, texts in generated_corpus(dialect).items()}
        for dialect in DIALECTS
    }
    fixture["before_collapse"] = json.loads(TEXT_FIXTURE.read_text())["before_collapse"]
    TEXT_FIXTURE.write_text(json.dumps(fixture, indent=0) + "\n")
    print(f"wrote {TEXT_FIXTURE}: {sum(len(fixture[dialect]) for dialect in DIALECTS)} text lists")


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate-texts"]:
        regenerate_texts()
    elif sys.argv[1:] == ["--regenerate"]:
        regenerate()
    else:
        raise SystemExit(__doc__)
