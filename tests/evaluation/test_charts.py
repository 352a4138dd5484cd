"""Tests for the ASCII chart renderers."""

from __future__ import annotations

from repro.evaluation.charts import line_chart, ratio_series_from_rows


class TestLineChart:
    def test_renders_all_series_markers(self) -> None:
        chart = line_chart(
            {
                "SPRITE": [(5, 0.9), (10, 0.92), (20, 0.91)],
                "eSearch": [(5, 0.88), (10, 0.86), (20, 0.84)],
            }
        )
        assert "*" in chart and "o" in chart
        assert "SPRITE" in chart and "eSearch" in chart

    def test_axis_labels(self) -> None:
        chart = line_chart(
            {"s": [(0, 0.0), (1, 1.0)]}, y_label="ratio", x_label="answers"
        )
        assert "ratio" in chart
        assert "answers" in chart

    def test_empty_series(self) -> None:
        assert line_chart({}) == "(no data)"
        assert line_chart({"s": []}) == "(no data)"

    def test_flat_series_does_not_crash(self) -> None:
        chart = line_chart({"flat": [(1, 0.5), (2, 0.5), (3, 0.5)]})
        assert "*" in chart

    def test_extremes_plotted_at_edges(self) -> None:
        chart = line_chart({"s": [(0, 0.0), (100, 1.0)]}, width=40, height=10)
        lines = chart.splitlines()
        top_row = next(line for line in lines if "┤" in line)
        assert top_row.rstrip().endswith("*")


class TestRowConversion:
    def test_fig4a_rows_to_series(self, small_env) -> None:
        from repro.evaluation import run_fig4a

        rows = run_fig4a(small_env, answer_counts=(5, 10))
        series = ratio_series_from_rows(rows, "num_answers")
        assert set(series) == {"SPRITE", "eSearch"}
        assert [x for x, __ in series["SPRITE"]] == [5.0, 10.0]
        chart = line_chart(series)
        assert "SPRITE" in chart
