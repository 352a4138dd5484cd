"""Retrieval quality and message cost under a lossy network transport.

The paper's simulator (like the seed of this repo) assumes instant,
reliable delivery.  ``repro.net`` relaxes that: every send and every
lookup hop goes through a transport with latency, drop probability, and
a bounded-retry delivery policy.  This bench sweeps the per-attempt drop
probability over an already-trained SPRITE system and reports

* the precision/recall ratio vs the centralized reference (how much of
  the paper's headline result survives loss),
* retry totals and the delivered fraction from the transport trace, and
* end-to-end simulated query latency percentiles.

Retries are deliberately capped at 1 so the degradation curve is
visible; with the default budget of 3 retries the delivery policy masks
drop rates this high almost completely (which is its own result —
asserted in ``tests/net/test_transport.py``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import NetworkConfig
from repro.evaluation import relative_to_centralized
from repro.evaluation.experiments import build_trained_sprite
from repro.net import build_transport

DROP_RATES = (0.0, 0.05, 0.1, 0.2)

LOSSY_BASE = NetworkConfig(
    transport="lossy",
    latency_model="lognormal",
    latency_ms=60.0,
    latency_sigma=0.55,
    timeout_ms=400.0,
    max_retries=1,
    jitter_ms=0.0,
    seed=20107,
)


def run_queries_under_loss(paper_env, system, drop: float) -> dict:
    """Swap in a fresh seeded lossy transport and run the test queries.

    Every cell starts with a cold route cache: a cell that inherits the
    routes the previous one warmed sends fewer lookup hops through the
    lossy network, so its quality and message count would depend on its
    place in the sweep rather than on its drop rate."""
    config = dataclasses.replace(LOSSY_BASE, drop_probability=drop)
    original = system.ring.transport
    transport = build_transport(config)
    system.ring.transport = transport
    system.ring.route_cache.clear()
    try:
        k = paper_env.config.sprite.top_k_answers
        queries = list(paper_env.test.queries)
        rankings = {}
        latencies = []
        for query in queries:
            clock_before = transport.clock.now
            rankings[query.query_id] = system.search(query, top_k=k, cache=False)
            latencies.append(transport.clock.now - clock_before)
        central = paper_env.centralized_rankings(queries)
        rel = relative_to_centralized(rankings, central, paper_env.test.qrels, k)
        summary = transport.trace.rollup()
        latencies.sort()
        return {
            "precision_ratio": rel.precision_ratio,
            "recall_ratio": rel.recall_ratio,
            "messages": summary.messages,
            "retries": summary.retries,
            "delivery_ratio": summary.delivery_ratio,
            "query_p50_ms": latencies[len(latencies) // 2],
            "query_max_ms": latencies[-1],
            "table": transport.trace.summary_table(),
        }
    finally:
        system.ring.transport = original


@pytest.fixture(scope="module")
def loss_sweep(paper_env, record_result):
    # Train once under the default perfect transport; only the query
    # phase runs over the lossy network (publishing with loss is a churn
    # question, measured separately in the churn bench).
    system = build_trained_sprite(paper_env)
    rows = {drop: run_queries_under_loss(paper_env, system, drop) for drop in DROP_RATES}
    lines = [
        "drop    P-ratio    R-ratio    messages    retries    deliv    q_p50_ms",
    ]
    for drop, row in rows.items():
        lines.append(
            f"{drop:>4.2f}    {row['precision_ratio']:>7.3f}    "
            f"{row['recall_ratio']:>7.3f}    {row['messages']:>8}    "
            f"{row['retries']:>7}    {row['delivery_ratio']:>5.3f}    "
            f"{row['query_p50_ms']:>8.1f}"
        )
    record_result("transport", "\n".join(lines))
    return rows


def test_bench_query_under_loss(benchmark, paper_env, loss_sweep) -> None:
    """Time the full test-query batch at 10% drop; curve shape asserted
    inline so it holds under --benchmark-only runs."""
    system = build_trained_sprite(paper_env)
    benchmark.pedantic(
        run_queries_under_loss,
        args=(paper_env, system, 0.1),
        rounds=1,
        iterations=1,
    )
    retries = [loss_sweep[d]["retries"] for d in DROP_RATES]
    assert retries == sorted(retries)
    assert loss_sweep[0.2]["precision_ratio"] < loss_sweep[0.0]["precision_ratio"]


class TestShape:
    def test_zero_loss_nearly_perfect_delivery(self, paper_env, loss_sweep) -> None:
        # With drop=0 the only losses are lognormal tail samples beyond
        # the 400ms timeout (~0.03% of attempts), and a retry recovers
        # essentially all of those.
        row = loss_sweep[0.0]
        assert row["retries"] < row["messages"] * 0.001
        assert row["delivery_ratio"] >= 0.999

    def test_retries_increase_monotonically_with_loss(self, loss_sweep) -> None:
        retries = [loss_sweep[d]["retries"] for d in DROP_RATES]
        assert all(a < b for a, b in zip(retries, retries[1:]))

    def test_delivery_ratio_degrades(self, loss_sweep) -> None:
        ratios = [loss_sweep[d]["delivery_ratio"] for d in DROP_RATES]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.0

    def test_recall_degrades_under_heavy_loss(self, loss_sweep) -> None:
        # Multi-term queries are redundant, so quality falls more slowly
        # than the raw drop rate — but at 20% it must show.
        assert (
            loss_sweep[0.2]["recall_ratio"]
            < loss_sweep[0.0]["recall_ratio"] - 0.01
        )

    def test_latency_grows_with_loss(self, loss_sweep) -> None:
        # Each failed attempt costs a full timeout, so median query
        # latency rises with the drop rate.
        assert loss_sweep[0.2]["query_p50_ms"] > loss_sweep[0.0]["query_p50_ms"]

    def test_same_seed_byte_identical_trace(self, paper_env) -> None:
        system = build_trained_sprite(paper_env)
        first = run_queries_under_loss(paper_env, system, 0.1)["table"]
        second = run_queries_under_loss(paper_env, system, 0.1)["table"]
        assert first == second
