"""Plain-text tables for experiment results.

Each formatter renders the rows its experiment runner produced in the
same shape the paper reports: ratios of a system over the centralized
system.  The benches print these tables so ``pytest benchmarks/
--benchmark-only`` output doubles as the reproduction record.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .experiments import CostRow, Fig4aRow, Fig4bRow, Fig4cRow


def _table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Minimal fixed-width table renderer."""
    materialized: List[List[str]] = [list(headers)] + [list(r) for r in rows]
    widths = [
        max(len(row[col]) for row in materialized)
        for col in range(len(headers))
    ]
    lines = []
    for i, row in enumerate(materialized):
        lines.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _pct(value: float) -> str:
    return f"{100.0 * value:.1f}%"


def format_fig4a(rows: Sequence[Fig4aRow]) -> str:
    """Figure 4(a): precision/recall ratios vs number of answers."""
    return _table(
        ["K", "SPRITE P", "eSearch P", "SPRITE R", "eSearch R"],
        (
            [
                str(r.num_answers),
                _pct(r.sprite.precision_ratio),
                _pct(r.esearch.precision_ratio),
                _pct(r.sprite.recall_ratio),
                _pct(r.esearch.recall_ratio),
            ]
            for r in rows
        ),
    )


def format_fig4b(rows: Sequence[Fig4bRow]) -> str:
    """Figure 4(b): precision ratios vs indexed-term budget per stream."""
    return _table(
        ["stream", "T", "SPRITE P", "eSearch P", "SPRITE R", "eSearch R"],
        (
            [
                r.stream,
                str(r.index_terms),
                _pct(r.sprite.precision_ratio),
                _pct(r.esearch.precision_ratio),
                _pct(r.sprite.recall_ratio),
                _pct(r.esearch.recall_ratio),
            ]
            for r in rows
        ),
    )


def format_fig4c(rows: Sequence[Fig4cRow]) -> str:
    """Figure 4(c): ratios per learning iteration across the pattern change."""
    return _table(
        ["iter", "group", "SPRITE P", "eSearch P", "SPRITE R", "eSearch R", "terms"],
        (
            [
                str(r.iteration),
                r.active_group,
                _pct(r.sprite.precision_ratio),
                _pct(r.esearch.precision_ratio),
                _pct(r.sprite.recall_ratio),
                _pct(r.esearch.recall_ratio),
                f"{r.sprite_terms}/{r.esearch_terms}",
            ]
            for r in rows
        ),
    )


def format_cost(rows: Sequence[CostRow]) -> str:
    """Index-construction cost: the Section 1 model's postings (one
    message each) and bytes, then the PUBLISH_BATCH traffic measured."""
    return _table(
        [
            "strategy", "terms", "postings", "model KiB", "postings/doc",
            "batches", "hops", "KiB",
        ],
        (
            [
                r.strategy,
                str(r.published_terms),
                str(r.postings),
                f"{r.model_bytes / 1024:.0f}",
                f"{r.postings_per_document:.1f}",
                str(r.batch_messages),
                str(r.batch_hops),
                f"{r.batch_bytes / 1024:.0f}",
            ]
            for r in rows
        ),
    )
