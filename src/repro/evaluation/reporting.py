"""Plain-text tables for experiment results.

Each formatter renders the rows its experiment runner produced in the
same shape the paper reports: ratios of a system over the centralized
system.  The benches print these tables so ``pytest benchmarks/
--benchmark-only`` output doubles as the reproduction record.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from ..dht.ring import ring_label
from .experiments import CostRow, Fig4aRow, Fig4bRow, Fig4cRow, RouteRow


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


def format_hops(rows: Sequence[Tuple[int, float]]) -> str:
    """Chord's mean lookup hops per ring size beside ``log2(N)``."""
    lines = ["  N    mean hops    log2(N)"]
    for n, hops in rows:
        lines.append(f"{n:>4}    {hops:>8.2f}    {math.log2(n):>6.2f}")
    return "\n".join(lines)


def route_checksums_match(rows: Sequence[RouteRow]) -> bool:
    """Whether every arity of each peer count returned one ranking
    checksum: routing changes where messages go, never what is found."""
    return all(
        len({r.ranking_checksum for r in rows if r.num_peers == n}) == 1
        for n in {r.num_peers for r in rows}
    )


def hop_reduction(rows: Sequence[RouteRow], num_peers: int, arity: int) -> float:
    """Fractional mean-hop reduction of *arity* against Chord (arity 2)
    at one peer count: 0.25 is 25 % fewer hops."""
    cells = {(r.num_peers, r.arity): r for r in rows}
    return 1.0 - cells[num_peers, arity].mean_hops / cells[num_peers, 2].mean_hops


def format_route(rows: Sequence[RouteRow]) -> str:
    """The route sweep: one line per cell, the cross-arity checksum
    verdict, then each arity's mean-hop reduction against Chord."""
    lines = [
        f"{'peers':>7} {'ring':<10} {'hops_mean':>9} {'hops_p99':>8} "
        f"{'lookup_msgs':>11} {'fingers':>7} {'build_entries':>13} "
        f"{'churn_entries':>13} {'checksum':>10}"
    ]
    for r in rows:
        lines.append(
            f"{r.num_peers:>7} {ring_label(r.arity):<10} "
            f"{r.mean_hops:>9.3f} {r.p99_hops:>8.0f} "
            f"{r.lookup_messages:>11} {r.fingers:>7} "
            f"{r.build_entries:>13} {r.churn_entries:>13} "
            f"{r.ranking_checksum[:10]:>10}"
        )
    verdict = "MATCH" if route_checksums_match(rows) else "MISMATCH"
    lines.append(f"cross-ring ranking checksums: {verdict}")
    for r in rows:
        if r.arity != 2:
            lines.append(
                f"{ring_label(r.arity)} vs chord @ {r.num_peers}: "
                f"{hop_reduction(rows, r.num_peers, r.arity):.1%} fewer mean hops"
            )
    return "\n".join(lines)
