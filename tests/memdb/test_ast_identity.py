"""The parser reproduces the recorded AST of every corpus text.

The fixture was recorded at 5e898c6 (the recursive-descent ladder); see
``ast_identity.py`` for the corpus and how to regenerate it on purpose.
When window functions, ``WITH RECURSIVE`` and CTE ``UNION`` were deleted
their texts left the corpus, and every ``WITH`` text was re-hashed: its
``WithSelect`` repr lost ``, recursive=False`` and nothing else.
"""

from __future__ import annotations

import pytest
from ast_identity import CHANGED, HANDWRITTEN, ast_hash, generated_corpus, load_fixture

from repro.backends.memdb import parse_one
from repro.backends.memdb.ast_nodes import BinaryOp, ColumnRef, Literal


@pytest.fixture(scope="module")
def fixture():
    return load_fixture()


def test_translator_corpus_reproduces_recorded_asts(fixture):
    corpus = generated_corpus()
    assert sorted(corpus) == sorted(fixture["generated"])
    changed = [name for name, texts in corpus.items() if ast_hash(*texts) != fixture["generated"][name]]
    assert not changed


def test_stored_corpus_reproduces_recorded_asts(fixture):
    stored = dict(fixture["stored"])
    assert len(stored) >= 1250
    assert set(HANDWRITTEN) <= set(stored)
    changed = [text for text, recorded in stored.items() if ast_hash(text) != recorded]
    assert not changed, f"{len(changed)} ASTs changed, first: {changed[0]!r}"


def test_only_concat_mixed_with_arithmetic_parses_differently(fixture):
    """``||`` moved from the additive level to above ``*``: nothing else did."""
    assert sorted(fixture["changed"]) == sorted(CHANGED)
    for text, recorded in fixture["changed"].items():
        assert ast_hash(text) != recorded, text

    def expression(sql):
        return parse_one(f"SELECT {sql}").items[0].expression

    two, three, four = Literal(2), Literal(3), Literal(4)
    assert expression("2 * 3 || 4") == BinaryOp("*", two, BinaryOp("||", three, four))
    assert expression("2 || 3 * 4") == BinaryOp("*", BinaryOp("||", two, three), four)
    assert expression("2 || 3 + 4") == BinaryOp("+", BinaryOp("||", two, three), four)
    assert expression("2 - 3 || 4") == BinaryOp("-", two, BinaryOp("||", three, four))
    assert expression("-a || b") == BinaryOp(
        "||", expression("-a"), ColumnRef("b")
    ), "unary operators still bind tighter than ||"
    assert expression("a || b || c") == BinaryOp(
        "||", BinaryOp("||", ColumnRef("a"), ColumnRef("b")), ColumnRef("c")
    )
