"""Crash recovery: snapshot catch-up vs full resync, and its invariant.

The module fixture provides the controlled head-to-head (the same
seeded system with and without a checkpoint → both modes crash
byte-identical state); the sim-layer test
exercises the ``crash_disk``/``recover_disk`` events inside a full
scenario with the two-tier invariant catalogue watching.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core.metadata import TermSlot
from repro.core.system import SpriteSystem
from repro.corpus.synthetic import SyntheticTrecCorpus
from repro.dht.replication import ReplicationManager
from repro.sim import InvariantChecker, Scenario, SimEvent, build_simulation
from repro.sim.events import random_scenario
from repro.store import RecoveryManager, RecoveryReport

#: Documents withdrawn, and documents first shared, after the checkpoint.
DELTA = 10


def _richest_non_owner(system) -> tuple:
    """``(peer, slot count)`` of the live peer that owns no document and
    hosts the most postings (ties to the smallest id) — data-rich enough
    that the recovery traffic difference is measurable."""
    best, best_slots, best_postings = None, 0, -1
    for node_id in system.ring.live_ids:
        if node_id in system.owners:
            continue
        slots = [
            slot
            for slot in system.ring.node(node_id).store.values()
            if isinstance(slot, TermSlot)
        ]
        postings = sum(slot.indexed_document_frequency for slot in slots)
        if postings > best_postings:
            best, best_slots, best_postings = node_id, len(slots), postings
    return best, best_slots


def _crash_and_rejoin(corpus, checkpoint: bool) -> SimpleNamespace:
    """Crash the posting-richest indexing peer of a durable system and
    rejoin it.

    Sequence: share → replicate → checkpoint everyone (the full-resync
    arm skips this) → post-checkpoint delta (withdraw one slice for
    good, share a held-back one) → replicate again (so the promoted
    copies carry the delta while the checkpoint stays stale) → crash →
    promote → recover.  Deterministic for a given corpus, and a
    checkpoint only reads the slots, so both arms crash byte-identical
    state and their reports are directly comparable.
    """
    system = SpriteSystem(
        corpus,
        sprite_config=SpriteConfig(initial_terms=8, store_backend="sqlite"),
        chord_config=ChordConfig(num_peers=100, seed=6),
    )
    runtime = system.store_runtime
    try:
        ring = system.ring
        docs = list(corpus)
        held_back, shared = docs[:DELTA], docs[DELTA:]
        system.bulk_share(shared)
        replication = ReplicationManager(ring)
        replication.replicate_round()

        runtime.flush_retired()
        if checkpoint:
            for node_id in ring.live_ids:
                runtime.snapshots.save_peer(ring.node(node_id))

        system.bulk_unshare([doc.doc_id for doc in shared[:DELTA]])
        system.bulk_share(held_back)
        replication.replicate_round()

        victim, victim_slots = _richest_non_owner(system)
        ring.fail(victim)
        replication.recover_from_failures()

        report = RecoveryManager(ring, runtime).recover_peer(victim)
        return SimpleNamespace(
            mode=report.mode,
            victim=victim,
            victim_slots=victim_slots,
            report=dataclasses.asdict(report),
        )
    finally:
        runtime.close()


@pytest.fixture(scope="module")
def recovery_pair(micro_corpus_config):
    # Enough documents that some peer owns none yet hosts several slots.
    config = replace(micro_corpus_config, num_documents=150)
    corpus, __, __ = SyntheticTrecCorpus(config).build()
    return (
        _crash_and_rejoin(corpus, checkpoint=True),
        _crash_and_rejoin(corpus, checkpoint=False),
    )


class TestRecoveryComparison:
    def test_modes_crash_identical_state(self, recovery_pair) -> None:
        snapshot, full = recovery_pair
        assert snapshot.mode == "snapshot" and full.mode == "full"
        assert snapshot.victim == full.victim
        assert snapshot.victim_slots == full.victim_slots
        assert (
            snapshot.report["postings_authoritative"]
            == full.report["postings_authoritative"]
        )
        assert (
            snapshot.report["slots_transferred"]
            == full.report["slots_transferred"]
        )

    def test_snapshot_recovery_ships_measurably_less(self, recovery_pair) -> None:
        snapshot, full = recovery_pair
        assert snapshot.report["slots_transferred"] > 0
        assert snapshot.report["slots_matched"] > 0  # unchanged slots are free
        assert (
            snapshot.report["postings_shipped"]
            < full.report["postings_shipped"]
        )
        assert snapshot.report["bytes_shipped"] < full.report["bytes_shipped"]

    def test_full_mode_ships_its_own_baseline(self, recovery_pair) -> None:
        __, full = recovery_pair
        assert (
            full.report["postings_shipped"]
            == full.report["full_baseline_postings"]
        )
        assert (
            full.report["messages_sent"] == full.report["full_baseline_messages"]
        )
        assert full.report["bytes_shipped"] == full.report["full_baseline_bytes"]


SQLITE = {"sprite": {"store_backend": "sqlite"}}


class TestSimIntegration:
    def test_explicit_crash_disk_scenario_stays_invariant(self) -> None:
        engine = build_simulation(seed=3, num_peers=16, delta=SQLITE)
        scenario = Scenario(
            seed=3,
            events=(
                [SimEvent("publish", count=5)] * 4
                + [SimEvent("replicate"), SimEvent("snapshot")]
                + [SimEvent("publish", count=3)] * 2
                + [
                    SimEvent("replicate"),
                    SimEvent("crash_disk"),
                    SimEvent("recover"),  # promote before the rejoin
                    SimEvent("recover_disk"),
                    SimEvent("replicate"),
                    SimEvent("stabilize"),
                    SimEvent("recover"),
                    SimEvent("maintain"),
                    SimEvent("maintain"),
                ]
            ),
        )
        report = engine.run(scenario)
        assert report.ok, [str(v) for v in report.violations]
        assert engine.snapshots_taken == 1
        assert len(engine.recovery.log) == 1
        recovery = engine.recovery.log[0]
        assert recovery.mode == "snapshot"
        assert recovery.postings_shipped <= recovery.full_baseline_postings

    def test_random_store_scenarios_stay_invariant(self) -> None:
        for seed in (1, 2):
            scenario = random_scenario(seed=seed, num_events=80, with_store=True)
            engine = build_simulation(
                seed=seed, num_peers=16, snapshot_interval=7, delta=SQLITE
            )
            report = engine.run(scenario)
            assert report.ok, (seed, [str(v) for v in report.violations])
            if any(event.kind == "crash_disk" for event in scenario):
                assert engine.recovery.log  # the recover_disk events ran

    def test_default_scenario_stream_unchanged_without_store(self) -> None:
        # The store event kinds must not perturb historical schedules.
        plain = random_scenario(seed=77, num_events=60)
        again = random_scenario(seed=77, num_events=60, with_store=False)
        assert plain.events == again.events
        assert not any(
            e.kind in ("snapshot", "crash_disk", "recover_disk") for e in plain
        )


class TestResyncInvariant:
    def test_flags_snapshot_recovery_that_overspends(self) -> None:
        engine = build_simulation(seed=5, num_peers=8)
        overspent = RecoveryReport(
            peer=1,
            mode="snapshot",
            slots_transferred=3,
            postings_shipped=10,
            full_baseline_postings=5,
        )
        checker = InvariantChecker(engine.system, recovery_log=[overspent])
        report = checker.check(quiescent=False)
        assert any(
            v.invariant == "resync_traffic_bounded" for v in report.violations
        )

    def test_vacuous_without_recoveries(self) -> None:
        engine = build_simulation(seed=5, num_peers=8)
        checker = InvariantChecker(engine.system, recovery_log=None)
        report = checker.check(quiescent=False)
        assert "resync_traffic_bounded" in report.checked
        assert not report.violations
