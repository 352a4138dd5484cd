"""The invariant checker must actually detect corrupted state.

Each test takes a healthy, quiescent deployment, injects one targeted
corruption directly into global state, and asserts the corresponding
invariant (and only its tier) reports it.  A checker that passes on
healthy states proves nothing unless it also fails on broken ones.
"""

from __future__ import annotations

import pytest

from repro.core.metadata import (
    SHIPPED_MUTATIONS,
    PostingEntry,
    QueryCache,
    TermSlot,
    query_digest,
)
from repro.sim import SimEvent, build_simulation
from ..probes import posting


@pytest.fixture()
def engine():
    """A small deployment with everything published and healed."""
    eng = build_simulation(seed=13)
    eng.apply(SimEvent("publish", count=60))
    for kind in ("stabilize", "replicate", "maintain"):
        eng.apply(SimEvent(kind))
    assert eng.quiescent
    return eng


def violated(report, invariant: str) -> bool:
    return any(v.invariant == invariant for v in report.violations)


class TestHealthyState:
    def test_all_invariants_hold(self, engine) -> None:
        report = engine.check_now()
        assert not report.violations, [str(v) for v in report.violations]
        assert set(report.checked) == {
            name for name, __ in engine.checker.CATALOGUE
        }

    def test_non_quiescent_check_skips_quiescent_tier(self, engine) -> None:
        report = engine.checker.check(quiescent=False)
        assert not report.violations
        assert set(report.checked) == {
            name for name, q_only in engine.checker.CATALOGUE if not q_only
        }


class TestMembershipConsistency:
    def test_detects_zombie_node(self, engine) -> None:
        ring = engine.system.ring
        ring.node(ring.live_ids[0]).alive = False  # bypass ring bookkeeping
        report = engine.checker.check(quiescent=False)
        assert violated(report, "membership_consistency")


class TestPrimaryPlacement:
    def test_detects_misplaced_key(self, engine) -> None:
        ring = engine.system.ring
        node_id = ring.live_ids[0]
        # a key owned by the *successor*, planted on this node's store
        foreign_key = (node_id + 1) % ring.space.size
        assert ring.successor_of(foreign_key) != node_id
        ring.node(node_id).put(foreign_key, "stray")
        report = engine.checker.check(quiescent=False)
        assert violated(report, "primary_placement")


class TestQueryCacheBounds:
    def test_detects_overfull_cache(self, engine) -> None:
        ring = engine.system.ring
        slot = next(
            s
            for nid in ring.live_ids
            for s in ring.node(nid).store.values()
            if isinstance(s, TermSlot)
        )
        for i in range(3):
            slot.cache.add((f"t{i}",), query_hash=i)
        slot.cache.capacity = 1  # model an eviction bug: entries exceed bound
        report = engine.checker.check(quiescent=False)
        assert violated(report, "query_cache_bounds")

    @staticmethod
    def cached_slot(engine) -> TermSlot:
        ring = engine.system.ring
        slot = next(
            s
            for nid in ring.live_ids
            for s in ring.node(nid).store.values()
            if isinstance(s, TermSlot)
        )
        slot.cache = QueryCache(capacity=10)
        for i in range(3):
            slot.cache.add((f"t{i}", slot.term), query_hash=i)
        return slot

    def test_a_maintained_digest_index_passes(self, engine) -> None:
        self.cached_slot(engine)
        assert not violated(engine.checker.check(quiescent=False), "query_cache_bounds")

    def test_detects_a_digest_left_behind_by_an_eviction(self, engine) -> None:
        slot = self.cached_slot(engine)
        digest = query_digest(("t0", slot.term))
        stale = slot.cache._index[digest]
        slot.cache._entries.popleft()  # an eviction that skipped the index
        assert slot.cache._index[digest] is stale
        assert violated(engine.checker.check(quiescent=False), "query_cache_bounds")

    def test_detects_a_digest_resolving_to_an_older_arrival(self, engine) -> None:
        slot = self.cached_slot(engine)
        terms = ("t1", slot.term)
        digest = query_digest(terms)
        older = slot.cache._index[digest]  # (its record, sequence 1)
        slot.cache.add(terms, query_hash=1)
        slot.cache._index[digest] = older
        assert slot.cache.digests[digest] == (terms, 1, 1)
        assert violated(engine.checker.check(quiescent=False), "query_cache_bounds")

    @staticmethod
    def shipped_and_mutated(engine) -> TermSlot:
        ring = engine.system.ring
        node = ring.node(ring.live_ids[0])
        slot = next(s for s in node.store.values() if isinstance(s, TermSlot))
        slot.ship(None)
        for i in range(SHIPPED_MUTATIONS + 3):
            slot.add_posting(PostingEntry(f"extra{i}", node.node_id, 1, 10))
        return slot

    def test_a_mutation_record_is_bounded_by_construction(self, engine) -> None:
        slot = self.shipped_and_mutated(engine)
        assert len(slot.mutations) == SHIPPED_MUTATIONS
        assert not violated(engine.checker.check(quiescent=False), "query_cache_bounds")

    def test_detects_an_overlong_mutation_record(self, engine) -> None:
        slot = self.shipped_and_mutated(engine)
        slot._mutations.insert(0, (0, "lost", True, False))  # a trim that never ran
        assert violated(engine.checker.check(quiescent=False), "query_cache_bounds")

    def test_detects_a_record_out_of_step_with_the_slot(self, engine) -> None:
        slot = self.shipped_and_mutated(engine)
        slot._mutations[-1] = (slot.version, "late", True, True)
        assert violated(engine.checker.check(quiescent=False), "query_cache_bounds")

    def test_detects_a_record_on_a_replica(self, engine) -> None:
        ring = engine.system.ring
        replica = next(
            s
            for nid in ring.live_ids
            for s in ring.node(nid).replicas.values()
            if isinstance(s, TermSlot)
        )
        replica.ship(None)  # a clone nobody was shipped from now claims it was
        assert violated(engine.checker.check(quiescent=False), "query_cache_bounds")


class TestTopologyMatchesOracle:
    def test_detects_wrong_successor(self, engine) -> None:
        ring = engine.system.ring
        node = ring.node(ring.live_ids[0])
        node.successor = ring.live_ids[0]  # self-loop: clearly wrong
        report = engine.checker.check(quiescent=True)
        assert violated(report, "topology_matches_oracle")

    def test_detects_stale_finger(self, engine) -> None:
        ring = engine.system.ring
        node = ring.node(ring.live_ids[0])
        node.fingers[0] = node.node_id if node.fingers[0] != node.node_id else ring.live_ids[1]
        report = engine.checker.check(quiescent=True)
        assert violated(report, "topology_matches_oracle")


class TestTermResolvability:
    def test_detects_lost_slot(self, engine) -> None:
        ring = engine.system.ring
        protocol = engine.system.protocol
        # drop one published term's slot from its responsible node
        owner = next(iter(engine.system.owners.values()))
        doc_id, state = next(iter(owner.shared.items()))
        term = state.index_terms[0]
        key = protocol.term_hash(term)
        holder = ring.node(ring.successor_of(key))
        holder.store.pop(key, None)
        holder.replicas.pop(key, None)
        report = engine.checker.check(quiescent=True)
        assert violated(report, "term_resolvability")
        assert violated(report, "posting_conservation")  # held 0 times


class TestOwnerAgreement:
    def test_detects_orphan_posting(self, engine) -> None:
        ring = engine.system.ring
        owner = next(iter(engine.system.owners.values()))
        doc_id = next(iter(owner.shared))
        slot = next(
            s
            for nid in ring.live_ids
            for s in ring.node(nid).store.values()
            if isinstance(s, TermSlot)
            and s.term not in owner.shared[doc_id].index_terms
        )
        slot.add_posting(
            PostingEntry(
                doc_id=doc_id, owner_peer=owner.node_id, raw_tf=1, doc_length=10
            )
        )
        report = engine.checker.check(quiescent=True)
        assert violated(report, "owner_agreement")


class TestPostingConservation:
    def test_detects_duplicated_posting(self, engine) -> None:
        ring = engine.system.ring
        protocol = engine.system.protocol
        owner = next(iter(engine.system.owners.values()))
        doc_id, state = next(iter(owner.shared.items()))
        term = state.index_terms[0]
        key = protocol.term_hash(term)
        primary = ring.node(ring.successor_of(key))
        # a second primary copy at some other node — the replica-promotion
        # double-count this invariant exists to catch
        other = next(nid for nid in ring.live_ids if nid != primary.node_id)
        clone = TermSlot(term=term, cache=QueryCache(4))
        clone.add_posting(posting(primary.store[key], doc_id))
        ring.node(other).store[key] = clone
        report = engine.checker.check(quiescent=True)
        assert violated(report, "posting_conservation")


class TestSlotVersionMonotone:
    def test_detects_version_regression(self, engine) -> None:
        # First check records the watermarks...
        assert not engine.check_now().violations
        ring = engine.system.ring
        slot = next(
            s
            for nid in ring.live_ids
            for s in ring.node(nid).store.values()
            if isinstance(s, TermSlot) and s.version > 0
        )
        # ...then a primary slot's history runs backwards in place — the
        # recycled-version bug cache validation cannot survive.
        slot._store._version -= 1
        report = engine.checker.check(quiescent=False)
        assert violated(report, "slot_version_monotone")

    def test_slot_rehoming_resets_the_watermark(self, engine) -> None:
        assert not engine.check_now().violations
        ring = engine.system.ring
        node_id = next(
            nid
            for nid in ring.live_ids
            for s in ring.node(nid).store.values()
            if isinstance(s, TermSlot) and s.version > 1
        )
        node = ring.node(node_id)
        key, slot = next(
            (k, s)
            for k, s in node.store.items()
            if isinstance(s, TermSlot) and s.version > 1
        )
        # The slot leaves its home and returns with a *lower* version —
        # legal: migration restarts history at the (node, key) pair.
        del node.store[key]
        assert not engine.checker.check(quiescent=False).violations
        slot._store._version = 1
        node.store[key] = slot
        report = engine.checker.check(quiescent=False)
        assert not violated(report, "slot_version_monotone")


class TestStormObservationInvariants:
    @staticmethod
    def _observation(**overrides):
        from repro.sim import StormObservation

        base = dict(
            kind="storm",
            queries=40,
            distinct_queries=4,
            cache_hits=36,
            cache_misses=4,
            postings_retrieved=40,
            max_single_postings=10,
            failures=0,
            rcache_enabled=True,
            disrupted=False,
        )
        base.update(overrides)
        return StormObservation(**base)

    def test_detects_ineffective_cache(self, engine) -> None:
        engine.stress_log.append(
            self._observation(cache_hits=10, cache_misses=30)
        )
        report = engine.checker.check(quiescent=False)
        assert violated(report, "storm_cache_effective")

    def test_detects_unbounded_hot_load(self, engine) -> None:
        engine.stress_log.append(self._observation(postings_retrieved=400))
        report = engine.checker.check(quiescent=False)
        assert violated(report, "hot_load_bounded")

    def test_disrupted_observations_are_exempt(self, engine) -> None:
        engine.stress_log.append(
            self._observation(
                cache_misses=30, postings_retrieved=400, disrupted=True
            )
        )
        report = engine.checker.check(quiescent=False)
        assert not report.violations

    def test_cache_off_observations_are_exempt(self, engine) -> None:
        engine.stress_log.append(
            self._observation(
                cache_hits=0, cache_misses=40, rcache_enabled=False
            )
        )
        report = engine.checker.check(quiescent=False)
        assert not report.violations


class TestResultCacheCoherent:
    def test_detects_poisoned_servable_entry(self) -> None:
        eng = build_simulation(seed=13, delta={"sprite": {"result_cache_size": 32}})
        eng.apply(SimEvent("publish", count=60))
        eng.apply(SimEvent("learn"))
        for kind in ("stabilize", "replicate", "maintain"):
            eng.apply(SimEvent(kind))
        assert eng.quiescent
        for query in eng.queries[:4]:
            eng.system.search(query, cache=True)
        assert not eng.check_now().violations
        protocol = eng.system.protocol
        entry = next(
            entry
            for __, cache in protocol.result_caches()
            for __, entry in cache.entries()
            if entry.ranked and not entry.failed_terms
        )
        # Corrupt the cached ranking in place: still servable (versions
        # match, no failed terms) but no longer the fresh answer.
        entry.ranked = list(reversed(entry.ranked))
        report = eng.check_now()
        assert violated(report, "result_cache_coherent")
