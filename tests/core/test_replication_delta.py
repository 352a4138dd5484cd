"""Delta replication against the full-copy reference model.

Two identically seeded systems run the same random program of shares,
withdrawals, query registrations, joins, leaves, crashes, stabilize
rounds, replication rounds and promotions — one replicating with the
stamp-gated delta round, one with
:class:`~tests.core.replication_reference.FullCopyReplicationManager`.
After every replication round every node's replicas (and primaries)
must be observably equal between the two: a slot the delta round chose
not to re-ship has to *be* what a fresh copy would have been.

The posting-version counter is process-global, so the two runs happen
one after the other, each from a counter reset to 1; versions — part of
what is compared — then line up draw for draw.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig, SpriteConfig, SyntheticCorpusConfig
from repro.core.metadata import PostingEntry, TermSlot
from repro.core.system import SpriteSystem
from repro.corpus.synthetic import SyntheticTrecCorpus
from repro.dht.replication import ReplicationManager
from repro.exceptions import ReproError
from repro.ir import postings

from .replication_reference import FullCopyReplicationManager

CORPUS, QUERYSET, __ = SyntheticTrecCorpus(
    SyntheticCorpusConfig(
        num_documents=40,
        num_topics=4,
        vocabulary_size=300,
        topic_core_size=15,
        mean_doc_length=50,
        min_doc_length=20,
        num_original_queries=6,
        relevant_per_query=6,
        seed=99,
    )
).build()
DOCS = list(CORPUS)
QUERIES = list(QUERYSET)
MIN_LIVE = 5

#: Replication rounds are what the test observes, so they are drawn
#: more often than any single other step.
KINDS = (
    ["share", "unshare", "query"] * 2
    + ["join", "leave", "fail", "stabilize", "promote"]
    + ["replicate"] * 4
)
PROGRAMS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 1 << 16)),
    min_size=12,
    max_size=60,
)


@contextmanager
def fresh_versions():
    """Run the body on a posting-version counter restarted at 1; the
    process's real counter is put back afterwards, untouched."""
    counter, postings._VERSIONS = postings._VERSIONS, itertools.count(1)
    try:
        yield
    finally:
        postings._VERSIONS = counter


def observe_slot(slot) -> tuple:
    return (
        slot.term,
        tuple(slot._store.rows()),
        slot.version,
        tuple(slot.cache),
        slot.cache.latest_sequence,
    )


def observe_ring(ring) -> dict:
    """node id → (replicas, primaries), each as ordered (key, slot
    observation) pairs — dict order is part of what must not drift."""
    return {
        node_id: tuple(
            tuple((key, observe_slot(slot)) for key, slot in held.items())
            for held in (ring.node(node_id).replicas, ring.node(node_id).store)
        )
        for node_id in ring.live_ids
    }


def build_system(backend: str) -> SpriteSystem:
    system = SpriteSystem(
        CORPUS,
        sprite_config=SpriteConfig(
            initial_terms=4,
            max_index_terms=8,
            query_cache_size=3,  # small, so caches evict mid-program
            assumed_corpus_size=1000,
            store_backend=backend,
        ),
        chord_config=ChordConfig(num_peers=10, successor_list_size=3, seed=11),
    )
    system.bulk_share(DOCS[:15])
    system.register_queries(QUERIES[:2])
    return system


def run_program(program, backend: str, manager_cls, check=None) -> list:
    """Drive one fresh system through *program*; returns the ring
    observation taken after every replication round (one is forced at
    the end).  *check*, if given, sees the final system."""
    with fresh_versions():
        system = build_system(backend)
        try:
            return _drive(system, program, manager_cls(system.ring), check)
        finally:
            if system.store_runtime is not None:
                system.store_runtime.close()


def _drive(system, program, manager, check) -> list:
    ring = system.ring
    shared = {doc.doc_id for doc in DOCS[:15]}
    observations = []
    for step, (kind, draw) in enumerate(program + [("replicate", 0)]):
        try:
            if kind == "share":
                doc = DOCS[draw % len(DOCS)]
                if doc.doc_id not in shared:
                    shared.add(doc.doc_id)
                    system.share_document(doc)
            elif kind == "unshare":
                doc = DOCS[draw % len(DOCS)]
                if doc.doc_id in shared:
                    shared.discard(doc.doc_id)
                    system.bulk_unshare([doc.doc_id])
            elif kind == "query":
                system.register_queries([QUERIES[draw % len(QUERIES)]])
            elif kind == "join":
                ring.join(name=f"joiner-{step}")
            elif kind in ("leave", "fail"):
                # Only peers that own no document go: removing an owner
                # would strand its shared-document state.
                idle = [n for n in ring.live_ids if n not in system.owners]
                if idle and ring.num_live > MIN_LIVE:
                    getattr(ring, kind)(idle[draw % len(idle)])
            elif kind == "stabilize":
                ring.stabilize()
            elif kind == "promote":
                manager.promote_replicas()
            else:
                manager.replicate_round()
                observations.append(observe_ring(ring))
        except ReproError:
            # Between a crash and the next stabilize an operation may
            # hit the dead peer; both runs hit it identically.
            continue
    if check is not None:
        check(system, manager)
    return observations


def assert_replicas_isolated(system, manager) -> None:
    """Write to every primary, then to every replica of it: the other
    side must not move.  Runs on the delta system, whose replicas may
    have survived many rounds without being re-copied."""
    ring = system.ring
    probe = PostingEntry(doc_id="isolation-probe", owner_peer=1, raw_tf=3, doc_length=10)

    def write(slot: TermSlot) -> None:
        slot.add_posting(probe)
        first = next(iter(slot._store.rows()))[0]
        slot.remove_posting(first)
        slot.cache.add(("isolation", "probe"), query_hash=1)

    for node_id in ring.live_ids:
        node = ring.node(node_id)
        for key, primary in node.store.items():
            holders = [
                ring.node(s).replicas[key]
                for s in node.successor_list[: manager.replication_factor]
                if ring.is_live(s) and key in ring.node(s).replicas
            ]
            for replica in holders:
                assert replica is not primary
                assert replica.cache is not primary.cache
                assert replica._store is not primary._store
            held = [observe_slot(replica) for replica in holders]
            write(primary)
            assert [observe_slot(replica) for replica in holders] == held
            authoritative = observe_slot(primary)
            for replica in holders:
                write(replica)
            assert observe_slot(primary) == authoritative


#: A schedule hypothesis found while the stamp's cache half was the
#: cache's latest *sequence*: a peer keeps an old replica of a key it is
#: primary for, the key moves to a joiner that then crashes, the peer
#: re-adopts its old copy and takes one query — reaching the same
#: sequence number as the successors' newer copies with different
#: queries behind it.  Sequences restart per lineage; stamps must not.
DIVERGED_LINEAGE = (
    [("share", 0)] * 16  # no-ops (already shared) that fix the step numbering of the joins
    + [("replicate", 0), ("query", 154), ("leave", 0), ("leave", 0), ("replicate", 0)]
    + [("join", 0), ("fail", 0), ("join", 0), ("query", 0)]
)


@pytest.mark.parametrize(
    "backend, examples", [("memory", 40), ("sqlite", 15)], ids=["columnar", "sqlite"]
)
def test_delta_round_matches_full_copy_reference(backend, examples) -> None:
    @settings(max_examples=examples, deadline=None)
    @given(PROGRAMS)
    @example(DIVERGED_LINEAGE)
    def compare(program) -> None:
        delta = run_program(
            program, backend, ReplicationManager, check=assert_replicas_isolated
        )
        reference = run_program(program, backend, FullCopyReplicationManager)
        assert len(delta) == len(reference)
        for round_no, (ours, theirs) in enumerate(zip(delta, reference)):
            assert ours == theirs, f"replicas diverged in replication round {round_no}"

    compare()


def test_quiet_rounds_ship_nothing_and_churned_slots_ship_alone() -> None:
    """The point of the delta round, on a real index: a second round
    with no writes in between copies nothing, and after one withdrawal
    only the slots that lost a posting move."""
    with fresh_versions():
        system = build_system("memory")
        manager = ReplicationManager(system.ring)
        assert manager.replicate_round() > 0
        assert manager.replicate_round() == 0
        doc_id = DOCS[0].doc_id
        touched = len(system.index_terms(doc_id))
        system.bulk_unshare([doc_id])
        # Deletions are forwarded to the replica holders, each of which
        # draws its own version: every copy of a touched slot re-ships.
        assert manager.replicate_round() == touched * manager.replication_factor
        assert manager.replicate_round() == 0
