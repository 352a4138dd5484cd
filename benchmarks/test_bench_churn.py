"""Retrieval under peer failure, with and without successor replication
(paper Section 7: "With these two schemes, peer failure will have little
impact in SPRITE").

For failure fractions 0-30% (independent random crashes): fail that
share of peers, repair routing, and measure

* the test-set precision ratio vs the centralized reference, and
* *index availability* — the fraction of query-term fetches served with
  a non-empty inverted list (relative to the failure-free run).

Precision alone under-states the damage: multi-term topical queries are
redundant, so a document reachable through any surviving term still
ranks.  Availability exposes the lost slots directly, and is what the
replication scheme restores.
"""

from __future__ import annotations

import random
from typing import Tuple

import pytest

from repro.dht import ReplicationManager
from repro.dht.messages import MessageKind
from repro.evaluation import relative_to_centralized
from repro.evaluation.experiments import build_trained_sprite
from repro.exceptions import NodeFailedError

FRACTIONS = (0.0, 0.1, 0.2, 0.3)


def measure_after_failures(
    paper_env, fraction: float, replicate: bool
) -> Tuple[float, float]:
    """Returns (precision ratio, fraction of term fetches served)."""
    system = build_trained_sprite(paper_env)
    manager = ReplicationManager(system.ring, replication_factor=3)
    if replicate:
        manager.replicate_round()

    # Uniformly random victims: fail-stop crashes are independent of
    # ring position (a consecutive run of successors would be a
    # different, correlated-failure threat model).
    rng = random.Random(1009)
    victims = list(system.ring.live_ids)
    count = int(len(victims) * fraction)
    for victim in rng.sample(victims, count):
        system.ring.fail(victim)
    if replicate:
        manager.recover_from_failures()
    else:
        system.ring.stabilize()

    k = paper_env.config.sprite.top_k_answers
    queries = list(paper_env.test.queries)
    served = 0
    total = 0
    rankings = {}
    for query in queries:
        issuer = system._issuer_for(query)
        for term in query.terms:
            total += 1
            try:
                postings, df = system.protocol.fetch_postings(issuer, term)
            except NodeFailedError:
                continue
            if df > 0:
                served += 1
        rankings[query.query_id] = system.search(query, top_k=k, cache=False)

    central = paper_env.centralized_rankings(queries)
    rel = relative_to_centralized(rankings, central, paper_env.test.qrels, k)
    availability = served / total if total else 0.0
    return rel.precision_ratio, availability


def replication_cost(paper_env) -> Tuple[float, float, float]:
    """REPLICATE bytes per peer for three rounds at factor 3: the first
    (every slot ships), a second with no write in between (digests
    only), and one after 5% of the documents were withdrawn."""
    system = build_trained_sprite(paper_env)
    manager = ReplicationManager(system.ring, replication_factor=3)
    stats = system.ring.stats
    per_round = []
    for withdraw in (0, 0, len(paper_env.corpus) // 20):
        system.bulk_unshare(list(paper_env.corpus.doc_ids)[:withdraw])
        before = stats.kind(MessageKind.REPLICATE).bytes
        manager.replicate_round()
        shipped = stats.kind(MessageKind.REPLICATE).bytes - before
        per_round.append(shipped / system.ring.num_live)
    return tuple(per_round)


@pytest.fixture(scope="module")
def churn_table(paper_env, record_result):
    rows = {}
    for fraction in FRACTIONS:
        with_rep = measure_after_failures(paper_env, fraction, replicate=True)
        without_rep = (
            with_rep
            if fraction == 0.0
            else measure_after_failures(paper_env, fraction, replicate=False)
        )
        rows[fraction] = (with_rep, without_rep)
    lines = ["          --- replicated ---    --- unreplicated ---",
             "failed    precision    avail    precision    avail"]
    for fraction, ((p_rep, a_rep), (p_no, a_no)) in rows.items():
        lines.append(
            f"{100 * fraction:>5.0f}%    {p_rep:>9.3f}    {a_rep:>5.3f}"
            f"    {p_no:>9.3f}    {a_no:>5.3f}"
        )
    first, quiet, churned = replication_cost(paper_env)
    lines.append("")
    lines.append("REPLICATE bytes per peer per round (factor 3):")
    lines.append(f"  first round (every slot ships)     {first:>8.0f}")
    lines.append(f"  quiet round (stamp digests only)   {quiet:>8.0f}")
    lines.append(f"  after withdrawing 5% of documents  {churned:>8.0f}")
    record_result("churn", "\n".join(lines))
    return rows


def test_bench_failure_recovery(benchmark, paper_env, churn_table) -> None:
    """Time one full fail-20%-and-recover cycle; headline shape claims
    asserted inline so they hold under --benchmark-only runs."""
    benchmark.pedantic(
        measure_after_failures,
        args=(paper_env, 0.2, True),
        rounds=1,
        iterations=1,
    )
    baseline_precision, baseline_avail = churn_table[0.0][0]
    for fraction in FRACTIONS[1:]:
        (p_rep, a_rep), (p_no, a_no) = churn_table[fraction]
        # Replication keeps the index essentially whole...
        assert a_rep >= baseline_avail - 0.02
        assert p_rep >= baseline_precision - 0.10
        # ...while the unreplicated index loses slots roughly in
        # proportion to the failed fraction.
        assert a_no <= baseline_avail - 0.5 * fraction + 0.05


class TestShape:
    def test_replication_preserves_availability(self, churn_table) -> None:
        baseline = churn_table[0.0][0][1]
        for fraction in FRACTIONS[1:]:
            assert churn_table[fraction][0][1] >= baseline - 0.02

    def test_unreplicated_availability_degrades(self, churn_table) -> None:
        availabilities = [churn_table[f][1][1] for f in FRACTIONS]
        assert availabilities[-1] < availabilities[0] - 0.15

    def test_replication_beats_no_replication_on_availability(self, churn_table) -> None:
        for fraction in (0.2, 0.3):
            (__, a_rep), (__, a_no) = churn_table[fraction]
            assert a_rep > a_no

    def test_precision_stays_reasonable_with_replication(self, churn_table) -> None:
        baseline = churn_table[0.0][0][0]
        for fraction in FRACTIONS[1:]:
            assert churn_table[fraction][0][0] >= baseline - 0.10
