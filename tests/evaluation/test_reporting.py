"""Tests for the result-table formatters."""

from __future__ import annotations

from repro.evaluation.experiments import CostRow, Fig4aRow, Fig4bRow, Fig4cRow
from repro.evaluation.metrics import AggregateResult, RelativeResult
from repro.evaluation.reporting import (
    _table,
    format_cost,
    format_fig4a,
    format_fig4b,
    format_fig4c,
)


def rel(precision: float, recall: float) -> RelativeResult:
    return RelativeResult(
        system=AggregateResult(precision, recall, {"q": None}),  # type: ignore[arg-type]
        reference=AggregateResult(1.0, 1.0, {"q": None}),  # type: ignore[arg-type]
    )


class TestTableRenderer:
    def test_column_alignment(self) -> None:
        table = _table(["name", "value"], [["a", "1"], ["longer", "22"]])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert len({len(line) for line in lines}) == 1  # equal widths

    def test_header_rule(self) -> None:
        table = _table(["x"], [["1"]])
        assert "-" in table.splitlines()[1]


class TestFigureFormatters:
    def test_fig4a_percentages(self) -> None:
        rows = [Fig4aRow(num_answers=5, sprite=rel(0.9, 0.85), esearch=rel(0.8, 0.75))]
        table = format_fig4a(rows)
        assert "90.0%" in table
        assert "80.0%" in table
        assert "85.0%" in table

    def test_fig4b_stream_column(self) -> None:
        rows = [
            Fig4bRow(
                stream="w-zipf", index_terms=10,
                sprite=rel(0.7, 0.7), esearch=rel(0.6, 0.6),
            )
        ]
        table = format_fig4b(rows)
        assert "w-zipf" in table and "10" in table

    def test_fig4c_terms_column(self) -> None:
        rows = [
            Fig4cRow(
                iteration=3, active_group="A",
                sprite=rel(0.8, 0.8), esearch=rel(0.7, 0.7),
                sprite_terms=15, esearch_terms=15,
            )
        ]
        table = format_fig4c(rows)
        assert "15/15" in table and "A" in table

    def test_cost_kib_and_per_doc(self) -> None:
        rows = [
            CostRow(
                strategy="sprite", published_terms=100, postings=101,
                model_bytes=10240, postings_per_document=20.2,
                batch_messages=37, batch_hops=420, batch_bytes=7168,
            )
        ]
        row = format_cost(rows).splitlines()[-1].split()
        assert row == ["sprite", "100", "101", "10", "20.2", "37", "420", "7"]
