"""Tests for relational schema / DDL generation."""

import sqlite3

import pytest

from repro.errors import TranslationError
import numpy as np

from repro.sql.schema import (
    create_table_sql,
    gate_table_data,
    insert_sql,
    is_valid_identifier,
    sanitize_identifier,
    state_table_data,
    state_table_name,
)


class TestNaming:
    def test_state_table_names(self):
        assert state_table_name(0) == "T0"
        assert state_table_name(12) == "T12"
        with pytest.raises(TranslationError):
            state_table_name(-1)

    def test_identifier_validation(self):
        assert is_valid_identifier("CX")
        assert is_valid_identifier("gate_rz_0")
        assert not is_valid_identifier("2fast")
        assert not is_valid_identifier("select")
        assert not is_valid_identifier("has space")

    def test_sanitize(self):
        assert sanitize_identifier("RZ(0.5)") == "RZ_0_5_"
        assert sanitize_identifier("select") == "select_t"
        assert is_valid_identifier(sanitize_identifier("123"))


class TestDDLAndInserts:
    def test_state_ddl_executes_on_sqlite(self):
        connection = sqlite3.connect(":memory:")
        table = state_table_data("T0", [(0, 1.0, 0.0)])
        connection.execute(create_table_sql(table, "INTEGER", "REAL"))
        connection.execute(insert_sql(table))
        assert connection.execute("SELECT * FROM T0").fetchall() == [(0, 1.0, 0.0)]

    def test_gate_ddl_executes_on_sqlite(self):
        connection = sqlite3.connect(":memory:")
        table = gate_table_data("H", [(0, 0, 0.7, 0.0), (1, 1, -0.7, 0.0)])
        connection.execute(create_table_sql(table, "INTEGER", "REAL"))
        connection.execute(insert_sql(table))
        assert connection.execute("SELECT COUNT(*) FROM H").fetchone()[0] == 2

    def test_statement_text(self):
        table = gate_table_data("H", [(0, 1, 0.5, 0), (1, 0, -0.25, 1e-3)])
        assert create_table_sql(table) == (
            "CREATE TABLE H (in_s BIGINT NOT NULL, out_s BIGINT NOT NULL, "
            "r DOUBLE NOT NULL, i DOUBLE NOT NULL)"
        )
        assert insert_sql(table) == (
            "INSERT INTO H (in_s, out_s, r, i) VALUES (0, 1, 0.5, 0.0), (1, 0, -0.25, 0.001)"
        )

    def test_table_data_columns(self):
        table = state_table_data("T0", [(2**62 - 1, 0.6, 0.0), (1, 0.0, -0.8)])
        assert list(table.columns) == ["s", "r", "i"]
        assert table.columns["s"].dtype == np.int64
        assert table.columns["s"].tolist() == [2**62 - 1, 1]
        assert table.columns["i"].dtype == np.float64
        assert f"({2**62 - 1}, 0.6, 0.0)" in insert_sql(table)

    def test_insert_preserves_full_precision(self):
        connection = sqlite3.connect(":memory:")
        amplitude = 2 ** -0.5
        table = state_table_data("T0", [(0, amplitude, -amplitude)])
        connection.execute(create_table_sql(table))
        connection.execute(insert_sql(table))
        row = connection.execute("SELECT r, i FROM T0").fetchone()
        assert row[0] == amplitude
        assert row[1] == -amplitude

    def test_empty_rows_rejected(self):
        with pytest.raises(TranslationError):
            state_table_data("T0", [])
        with pytest.raises(TranslationError):
            gate_table_data("H", [])

    def test_invalid_names_rejected(self):
        with pytest.raises(TranslationError):
            state_table_data("select", [(0, 1.0, 0.0)])
        with pytest.raises(TranslationError):
            gate_table_data("1bad", [(0, 0, 1.0, 0.0)])
