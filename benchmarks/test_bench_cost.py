"""Index construction & maintenance cost (the Section 1 motivation).

"Each term is likely to have been assigned to a different peer, so that
a single document insertion could require updates in a large fraction of
the network.  Therefore, the overhead ... is too high to be of
practical use."

Measured here: publication cost of SPRITE (selective, learned), basic
eSearch (static top-20), and the index-everything strawman — as the
Section 1 model counts it (one message per published posting) and as
the destination-grouped protocol ships it — plus SPRITE's ongoing
maintenance (poll) traffic per learning iteration.
"""

from __future__ import annotations

import pytest

from repro.dht.messages import TERM_BYTES, VERSION_BYTES, MessageKind
from repro.evaluation import format_cost, run_cost_comparison
from repro.evaluation.experiments import build_trained_sprite


@pytest.fixture(scope="module")
def rows(paper_env, record_result):
    result = run_cost_comparison(paper_env)
    record_result("cost", format_cost(result))
    return result


def test_bench_cost_comparison(benchmark, paper_env, rows) -> None:
    benchmark.pedantic(
        run_cost_comparison, args=(paper_env,), rounds=1, iterations=1
    )


class TestShape:
    def test_everything_is_several_times_worse(self, rows) -> None:
        by_name = {r.strategy: r for r in rows}
        everything, esearch = by_name["index-everything"], by_name["esearch"]
        assert everything.postings > 3 * esearch.postings
        assert everything.model_bytes > 3 * esearch.model_bytes
        # Grouping softens the blow on the wire but does not remove it.
        assert everything.batch_bytes > 3 * esearch.batch_bytes

    def test_static_strategies_publish_each_term_once(self, rows) -> None:
        by_name = {r.strategy: r for r in rows}
        for name in ("esearch", "index-everything"):
            assert by_name[name].postings == by_name[name].published_terms

    def test_sprite_postings_bounded_by_budget(self, rows, paper_env) -> None:
        """SPRITE publishes ≤ budget + replaced terms per document."""
        sprite = {r.strategy: r for r in rows}["sprite"]
        n_docs = len(paper_env.corpus)
        budget = paper_env.config.sprite.total_terms_after_learning
        assert sprite.published_terms <= n_docs * budget
        # Replacement churn adds publications, but only a sliver.
        assert sprite.published_terms <= sprite.postings <= n_docs * budget * 1.01

    def test_grouping_never_costs_a_message(self, rows) -> None:
        for row in rows:
            assert 0 < row.batch_messages <= row.postings
            assert row.batch_hops >= row.batch_messages


class TestMaintenanceTraffic:
    def test_bench_poll_traffic_per_iteration(
        self, benchmark, paper_env, record_result
    ) -> None:
        """One learning iteration's poll traffic: a POLL_BATCH and its
        QUERY_BATCH reply per (owner, distinct indexing peer) — at least
        one pair per owner, at most one per distinct (owner, term) pair —
        and a request that carries one (term, cursor) pair per distinct
        term of the owner and nothing else: a term several of its
        documents index is polled once, and no field grows with a
        document's index-term count (the §3 rule runs at the owner)."""
        system = build_trained_sprite(paper_env)
        stats = system.ring.stats
        owners = [o for o in system.owners.values() if system.ring.is_live(o.node_id)]
        # Each owner polls every distinct term its documents index.
        pairs = sum(
            len({t for state in owner.shared.values() for t in state.index_terms})
            for owner in owners
        )
        polled_terms = system.total_published_terms()
        before = stats.snapshot()
        benchmark.pedantic(system.run_learning_iteration, rounds=1, iterations=1)
        delta = stats.delta_since(before)
        polls = delta.get(MessageKind.POLL_BATCH)
        batches = delta.get(MessageKind.QUERY_BATCH)
        assert polls is not None and batches is not None
        assert MessageKind.POLL_QUERIES not in delta
        assert polls.messages == batches.messages
        assert polls.bytes == (
            MessageKind.POLL_BATCH.fixed_bytes * polls.messages
            + (TERM_BYTES + VERSION_BYTES) * pairs
        )
        assert len(owners) <= polls.messages <= pairs
        lines = [
            "maintenance traffic, one learning iteration:",
            f"  documents:        {len(paper_env.corpus)}",
            f"  owners:           {len(owners)}",
            f"  published terms:  {system.total_published_terms()}",
            f"  terms polled:     {polled_terms}",
            f"  (owner, term):    {pairs}",
            f"  poll batches:     {polls.messages}",
            f"  poll bytes:       {polls.bytes}",
            f"  batch replies:    {batches.messages}",
            f"  reply bytes:      {batches.bytes}",
        ]
        record_result("cost_maintenance", "\n".join(lines))
