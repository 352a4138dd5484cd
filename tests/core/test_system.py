"""Tests for the system facade (SpriteSystem)."""

from __future__ import annotations

import hashlib
from dataclasses import fields, replace

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core import SpriteSystem
from repro.corpus import Corpus, Document, Query
from repro.dht import ChordRing
from repro.exceptions import LearningError

from ..twins import write_state_fingerprint

CHORD = ChordConfig(num_peers=24, id_bits=32, seed=61)


@pytest.fixture()
def corpus() -> Corpus:
    docs = []
    for i in range(12):
        topic = ["chord ring lookup", "retrieval ranking index", "churn failure replica"][i % 3]
        filler = f"filler{i} filler{i} pad{i}"
        docs.append(Document(f"d{i}", f"{topic} {topic} {filler}"))
    return Corpus(docs)


@pytest.fixture()
def sprite(corpus: Corpus, fast_sprite_config: SpriteConfig) -> SpriteSystem:
    return SpriteSystem(corpus, sprite_config=fast_sprite_config, chord_config=CHORD)


class TestSharing:
    def test_share_corpus_publishes_everything(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        assert sprite.total_published_terms() == 12 * 3  # initial_terms=3

    def test_share_is_idempotent(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        sprite.share_corpus()
        assert sprite.total_published_terms() == 12 * 3

    def test_share_corpus_shares_exactly_what_is_missing(self, sprite: SpriteSystem) -> None:
        """It used to consult a flag that mirrored the owner table, and
        raised "document already shared" for the first document that
        was still there."""
        sprite.share_corpus()
        sprite.bulk_unshare(["d4"])
        assert sprite.total_published_terms() == 11 * 3
        sprite.share_corpus()
        assert sprite.total_published_terms() == 12 * 3
        assert sprite.index_terms("d4") == sprite.corpus.get("d4").top_terms(3)

    def test_owner_assignment_deterministic(self, sprite: SpriteSystem, corpus: Corpus) -> None:
        sprite.share_corpus()
        again = SpriteSystem(corpus, sprite_config=sprite.config, chord_config=CHORD)
        again.share_corpus()
        for doc_id in corpus.doc_ids:
            assert sprite.owner_of(doc_id).node_id == again.owner_of(doc_id).node_id

    def test_owner_of_unshared_raises(self, sprite: SpriteSystem) -> None:
        with pytest.raises(LearningError):
            sprite.owner_of("d0")

    def test_index_terms_accessible(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        terms = sprite.index_terms("d0")
        assert len(terms) == 3


class TestSearchPath:
    def test_search_finds_matching_documents(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        ranked = sprite.search(Query("q", ("chord", "ring")), cache=False)
        assert len(ranked) > 0
        for doc_id in ranked.ids():
            assert int(doc_id[1:]) % 3 == 0  # only the chord-topic docs

    def test_search_respects_config_top_k(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        ranked = sprite.search(Query("q", ("chord",)), cache=False)
        assert len(ranked) <= sprite.config.top_k_answers

    def test_register_queries_counts(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        count = sprite.register_queries([Query("q1", ("chord", "ring"))])
        assert count == 2


class TestLearningLoop:
    def test_learning_requires_share(self, sprite: SpriteSystem) -> None:
        with pytest.raises(LearningError):
            sprite.run_learning_iteration()

    def test_learning_runs_on_whatever_is_shared(self, sprite: SpriteSystem) -> None:
        """Learning refuses only when nothing is shared; withdrawing one
        document used to make it demand a share_corpus() that then
        failed."""
        sprite.share_corpus()
        sprite.bulk_unshare(["d4"])
        sprite.register_queries([Query(f"q{i}", ("chord", "lookup")) for i in range(4)])
        sprite.run_learning_iteration()
        sizes = sprite.learning_summary()
        assert "d4" not in sizes and len(sizes) == 11
        assert all(size == 5 for size in sizes.values())

    def test_learning_grows_index_sizes(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        sprite.register_queries(
            [Query(f"q{i}", ("chord", "lookup")) for i in range(4)]
        )
        sprite.run_learning(iterations=1)
        sizes = sprite.learning_summary()
        # Target is 3 + 3 = 6, clamped to each document's 5 unique terms.
        assert all(size == 5 for size in sizes.values())

    def test_full_schedule_caps_at_max(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        sprite.run_learning()  # 2 iterations × 3 terms → 9 (= cap)
        sizes = sprite.learning_summary()
        assert all(size <= sprite.config.max_index_terms for size in sizes.values())

    def test_learning_indexes_queried_terms(self, sprite: SpriteSystem) -> None:
        """A query term present in a document but outside its initial
        index must enter after learning (the d/e terms of Figure 1)."""
        sprite.share_corpus()
        target = "d0"
        initial = set(sprite.index_terms(target))
        assert "lookup" in sprite.corpus.get(target).term_freqs
        queried = ("chord", "lookup")
        sprite.register_queries([Query(f"q{i}", queried) for i in range(5)])
        sprite.run_learning(iterations=1)
        after = set(sprite.index_terms(target))
        assert "lookup" in after or "lookup" in initial

    def test_stats_accumulate_traffic(self, sprite: SpriteSystem) -> None:
        """Owners publish via PUBLISH_BATCH messages: one per distinct
        destination peer, together carrying every (doc, term) posting
        and never more batches than one message per posting."""
        from repro.dht.messages import MessageKind, POSTING_BYTES, TERM_BYTES

        sprite.share_corpus()
        batch = sprite.ring.stats.kind(MessageKind.PUBLISH_BATCH)
        assert sprite.ring.stats.kind(MessageKind.PUBLISH_TERM).messages == 0
        assert 0 < batch.messages <= 12 * 3
        assert batch.bytes >= 12 * 3 * (TERM_BYTES + POSTING_BYTES)
        assert batch.hops >= batch.messages  # ≥1 hop each


class TestDiagnostics:
    def test_execute_returns_diagnostics(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        ranked, execution = sprite.execute(Query("q", ("chord",)), cache=False)
        assert execution.terms_visited == 1
        assert execution.postings_retrieved >= len(ranked.ids())


class TestIssuerFollowsMembership:
    def test_issuer_is_the_live_successor_after_every_event(
        self, sprite: SpriteSystem
    ) -> None:
        """The issuer is remembered per membership epoch; after joins,
        leaves and crashes (before and after the repair) it must still
        be the live successor of the hashed query id."""
        ring = sprite.ring
        queries = [Query(f"q{i}", ("chord",)) for i in range(40)]

        def assert_issuers() -> None:
            for query in queries:
                key = ring.space.hash_key(f"issuer:{query.query_id}")
                expected = ring.successor_of(key)
                assert sprite._issuer_for(query) == expected
                assert ring.is_live(expected)

        assert_issuers()
        for step in range(6):
            # The victim issues queries, so a stale map would name a
            # departed peer.
            victim = sprite._issuer_for(queries[step])
            event = ("join", "leave", "fail")[step % 3]
            if event == "join":
                ring.join(name=f"issuer-joiner-{step}")
            else:
                getattr(ring, event)(victim)
            assert_issuers()
            ring.stabilize()
            assert_issuers()


class TestNothingOutlivesASystem:
    def test_the_posting_module_keeps_nothing_of_a_dropped_system(
        self, fast_sprite_config: SpriteConfig
    ) -> None:
        """The posting store once interned every document id published
        by any system in the process in a module-level table, until
        exit.  Only the version counter may outlive a system."""
        from collections.abc import Sized

        from repro.ir import postings

        def module_level_sizes() -> dict:
            return {
                name: len(value)
                for name, value in vars(postings).items()
                if not name.startswith("__")
                and isinstance(value, Sized)
                and not isinstance(value, (str, type))
            }

        before = module_level_sizes()
        for generation in range(2):
            docs = [
                Document(f"gen{generation}-doc{i}", f"chord ring lookup only{generation}x{i}")
                for i in range(8)
            ]
            system = SpriteSystem(
                Corpus(docs), sprite_config=fast_sprite_config, chord_config=CHORD
            )
            system.share_corpus()
            assert len(system.search(Query("q", ("chord", "ring")), cache=False)) > 0
            del system
        assert module_level_sizes() == before


class TestTheOverlayIsTheRingsOwn:
    """The finger arity lives on the ring's config and nowhere else, so
    what a system reports is what it routes on."""

    def test_a_prebuilt_ring_cannot_disagree_with_the_system(
        self, corpus: Corpus, fast_sprite_config: SpriteConfig
    ) -> None:
        ring = ChordRing(replace(CHORD, finger_arity=8))
        system = SpriteSystem(corpus, sprite_config=fast_sprite_config, ring=ring)
        assert system.ring.config.finger_arity == 8
        assert len(system.ring.finger_steps) > 32
        assert not {"ring", "ring_arity"} & {f.name for f in fields(system.config)}

    @pytest.mark.parametrize(
        "policy",
        [
            SpriteConfig().static_baseline(),
            replace(SpriteConfig(), initial_terms=10**6, max_index_terms=10**6),
        ],
        ids=["ESearch-static-baseline", "FullIndex"],
    )
    def test_baselines_rank_alike_on_a_wider_ring(self, corpus: Corpus, policy) -> None:
        rankings = []
        for arity in (2, 8):
            system = SpriteSystem(
                corpus, sprite_config=policy, chord_config=replace(CHORD, finger_arity=arity)
            )
            assert len(system.ring.finger_steps) == {2: 32, 8: 73}[arity]
            system.share_corpus()
            rankings.append(
                [
                    [(e.doc_id, e.score) for e in system.search(Query("q", terms), cache=False)]
                    for terms in (("chord", "ring"), ("retrieval",), ("churn", "replica"))
                ]
            )
        assert rankings[0] == rankings[1]
        assert any(rankings[0])


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestTermSelectionIsAConfigDelta:
    """eSearch and the full-index system were subclasses
    (``ESearchSystem``, ``FullIndexSystem``).  The literals below were
    recorded from those classes on the micro deployment; the config
    deltas that replaced them must reproduce them.

    The four test queries address 14 slots over 12 SEARCH_TERM /
    POSTINGS pairs, each term once from a peer holding no version of it,
    and register nothing: SEARCH_TERM is ``12·16 + 14·8 = 304`` as
    recorded, and POSTINGS, recorded before a reply paid 8 bytes per
    slot it answers, is the recorded figure ``+ 14·8 = 112``."""

    STATIC_FINGERPRINT = "87429760fbaba03c"
    STATIC_RANKINGS = "8b24f75179f82c30"
    #: Recorded, but for LOOKUP and PUBLISH_BATCH hops: an owner reaches
    #: a peer it published to before without a lookup, in one hop (369
    #: lookups and 1,089 publish hops while every share looked its peers
    #: up afresh).
    STATIC_TRAFFIC = {
        "lookup": {"messages": 136, "bytes": 0, "hops": 352},
        # 12·16 + 24·53 postings, as recorded; + 14·8
        "postings": {"messages": 12, "bytes": 1464 + 112, "hops": 12},
        "publish_batch": {"messages": 355, "bytes": 22960, "hops": 672},
        "search_term": {"messages": 12, "bytes": 304, "hops": 42},
    }
    #: Slots and owner state with each document's index terms sorted:
    #: the subclass published ``sorted(terms)``, the config publishes in
    #: frequency order, so selection order and slot-version rank moved.
    FULL_FINGERPRINT_UNORDERED = "f54b119b9a17fc36"
    #: kind → (messages, bytes).  Hops are not pinned: the order in which
    #: a write batch locates its terms decides which of its lookups the
    #: route cache answers.  Lookups are paid only for peers the owner
    #: had not reached before (628 while every share looked its peers up).
    FULL_TRAFFIC = {
        "lookup": (185, 0),
        # 12·16 + 24·143 postings, as recorded; + 14·8
        "postings": (12, 3624 + 112),
        "publish_batch": (614, 71168),
        "search_term": (12, 304),
    }
    FULL_RANKINGS = [
        ("q04", [
            ("d00006", 0.041612479675107054),
            ("d00059", 0.04093815731409464),
            ("d00015", 0.02571012334865717),
            ("d00029", 0.024739692931847947),
            ("d00047", 0.02120545982824421),
            ("d00058", 0.02049930317279822),
            ("d00050", 0.01934893486641197),
            ("d00019", 0.01814295853384133),
            ("d00030", 0.017688802659392013),
            ("d00004", 0.016236560605293472),
        ]),
        ("q05", [
            ("d00048", 0.09026433071996602),
            ("d00043", 0.0436643937919283),
            ("d00007", 0.0427618528577489),
            ("d00040", 0.031128486588129153),
            ("d00037", 0.03027993699464493),
            ("d00028", 0.028750183581122107),
            ("d00026", 0.027098453033829066),
            ("d00034", 0.026182948436864265),
            ("d00021", 0.02203086719057077),
            ("d00019", 0.018054689434060845),
        ]),
        ("q06", [
            ("d00025", 0.04834208745920161),
            ("d00006", 0.044199973456291335),
            ("d00008", 0.043773130938004855),
            ("d00057", 0.04323220538509351),
            ("d00045", 0.0347215777421954),
            ("d00035", 0.032091555189954074),
            ("d00028", 0.028591801318743053),
            ("d00011", 0.02822976725911945),
            ("d00044", 0.027248130390152617),
            ("d00053", 0.024939783260493082),
        ]),
        ("q07", [
            ("d00048", 0.09228495870361896),
            ("d00017", 0.08122978139158242),
            ("d00013", 0.04931475444579494),
            ("d00022", 0.04230676701561416),
            ("d00047", 0.04184585504997941),
            ("d00042", 0.0359907097613912),
            ("d00052", 0.03320778169953209),
            ("d00004", 0.026125182411570448),
            ("d00009", 0.021451709769281443),
            ("d00032", 0.017592506467466375),
        ]),
    ]

    def test_static_baseline_reproduces_the_esearch_class(self, micro) -> None:
        sprite, chord = micro.configs()
        assert sprite.static_baseline().initial_terms == 9
        system = SpriteSystem(micro.corpus, sprite.static_baseline(), chord)
        system.share_corpus()
        state = write_state_fingerprint(system)
        assert _digest(
            (sorted(state["slots"].items()), state["version_rank"], sorted(state["owners"].items()))
        ) == self.STATIC_FINGERPRINT
        rankings = [
            (q.query_id, [(e.doc_id, e.score.hex()) for e in system.search(q, cache=False)])
            for q in micro.test
        ]
        assert _digest(rankings) == self.STATIC_RANKINGS
        assert system.ring.stats.summary() == self.STATIC_TRAFFIC

    def test_unbounded_initial_terms_reproduce_the_full_index_class(self, micro) -> None:
        system = micro.full_index()
        assert system.total_published_terms() == 1917
        state = write_state_fingerprint(system)
        owners = [
            (key, (tuple(sorted(value[0])),) + value[1:])
            for key, value in sorted(state["owners"].items())
        ]
        assert _digest((sorted(state["slots"].items()), owners)) == self.FULL_FINGERPRINT_UNORDERED
        for query, (query_id, expected) in zip(micro.test, self.FULL_RANKINGS):
            ranked = system.search(query, cache=False)
            assert query.query_id == query_id
            assert ranked.ids() == [doc_id for doc_id, __ in expected]
            assert [e.score for e in ranked] == pytest.approx(
                [score for __, score in expected], rel=1e-9, abs=1e-12
            )
        assert {
            kind: (row["messages"], row["bytes"])
            for kind, row in system.ring.stats.summary().items()
        } == self.FULL_TRAFFIC
