"""Integration tests for the operational machinery working together:
maintenance healing after churn and hot-term advice on a live system."""

from __future__ import annotations

import pytest

from repro.core import MaintenanceDaemon
from repro.dht import ReplicationManager
from repro.evaluation.experiments import build_trained_sprite
from repro.extensions import HotTermAdvisor
from ..probes import ids


@pytest.fixture()
def trained(small_env):
    return build_trained_sprite(small_env)


class TestMaintenanceAfterChurn:
    def test_heal_restores_live_owner_documents(self, small_env, trained) -> None:
        """Crash several slot-holding peers (no replication), stabilize,
        heal via maintenance.  Every document whose *owner survived* must
        be retrievable exactly as before; only documents owned by the
        crashed peers may drop out (their owner — and hence the file
        itself — is gone, so unfindability is correct, not a bug)."""
        queries = small_env.test.queries[:15]
        baseline = {
            q.query_id: set(ids(trained.search(q, top_k=500, cache=False)))
            for q in queries
        }
        victims = [
            n for n in trained.ring.live_ids if trained.ring.node(n).store
        ][:3]
        dead_owner_docs = {
            doc_id
            for victim in victims
            if victim in trained.owners
            for doc_id in trained.owners[victim].shared
        }
        for victim in victims:
            trained.ring.fail(victim)
        trained.ring.stabilize()

        MaintenanceDaemon(trained).heal_until_stable(max_rounds=4)

        for query in queries:
            after = set(ids(trained.search(query, top_k=500, cache=False)))
            missing = baseline[query.query_id] - after
            assert missing <= dead_owner_docs, (
                f"{query.query_id}: lost live-owner documents {missing - dead_owner_docs}"
            )
            assert after <= baseline[query.query_id]

    def test_maintenance_and_replication_compose(self, small_env, trained) -> None:
        """With replication, recovery promotes replicas; a maintenance
        round afterwards finds (almost) nothing left to republish."""
        manager = ReplicationManager(trained.ring, replication_factor=3)
        manager.replicate_round()
        victims = [
            n for n in trained.ring.live_ids if trained.ring.node(n).store
        ][:2]
        for victim in victims:
            trained.ring.fail(victim)
        manager.recover_from_failures()

        report = MaintenanceDaemon(trained).run_round()
        # Replication already restored the slots; maintenance republishes
        # at most a handful of stragglers (replicas staler than the last
        # learning iteration).
        assert report.postings_republished <= report.postings_checked * 0.05


class TestLoadBalancingOnLiveSystem:
    def test_hot_term_advice_on_trained_system(self, small_env, trained) -> None:
        advisor = HotTermAdvisor(trained, df_threshold=len(small_env.corpus) // 3)
        hot_count, switches = advisor.rebalance()
        if hot_count:
            assert switches > 0
        # System still answers after any rebalancing.
        ranked = trained.search(small_env.test.queries[1], cache=False)
        assert isinstance(ids(ranked), list)

