"""Tests for message types and the cost model (``WIRE``)."""

from __future__ import annotations

import pytest

from repro.dht.messages import (
    ADDRESS_BYTES,
    ALL_KINDS,
    Message,
    MessageKind,
    POSTING_BYTES,
    QUERY_HEADER_BYTES,
    TERM_BYTES,
    VERSION_BYTES,
    WIRE,
    message,
    units_carried,
    wire_size,
)
from repro.dht.stats import NetworkStats
from repro.net import PerfectTransport, TraceLog

K = MessageKind


class TestMessage:
    def test_frozen(self) -> None:
        msg = Message(MessageKind.LOOKUP, src=1, dst=2)
        with pytest.raises(AttributeError):
            msg.src = 9  # type: ignore[misc]

    def test_negative_size_rejected(self) -> None:
        with pytest.raises(ValueError):
            Message(MessageKind.LOOKUP, 1, 2, size_bytes=-1)

    def test_negative_hops_rejected(self) -> None:
        with pytest.raises(ValueError):
            Message(MessageKind.LOOKUP, 1, 2, hops=-1)

    def test_all_kinds_enumerated(self) -> None:
        assert len(ALL_KINDS) == len(MessageKind)
        assert MessageKind.PUBLISH_TERM in ALL_KINDS

    def test_five_fields_and_the_header_default(self) -> None:
        """``bench/trace.py`` and every test that builds one directly
        rely on this shape."""
        assert Message._fields == ("kind", "src", "dst", "size_bytes", "hops")
        assert Message._field_defaults == {"size_bytes": QUERY_HEADER_BYTES, "hops": 1}
        assert Message(K.HEARTBEAT, 1, 2) == Message(K.HEARTBEAT, 1, 2, 16, 1)

    def test_message_builds_the_same_checked_immutable_shape(self) -> None:
        """``message()`` skips ``Message.__new__`` once it has checked
        the size and hops itself: what it returns is a ``Message`` equal
        to the directly built one, just as immutable, and a negative
        size or hop count is still a ``ValueError``."""
        built = message(K.POSTINGS, 1, 2, 3, 1, 0, hops=2)
        assert type(built) is Message
        assert built == Message(K.POSTINGS, 1, 2, 16 + 3 * 24 + 8, 2)
        with pytest.raises(AttributeError):
            built.size_bytes = 0  # type: ignore[misc]
        with pytest.raises(ValueError):
            message(K.LOOKUP, 1, 2, hops=-1)
        with pytest.raises(ValueError):
            message(K.POSTINGS, 1, 2, -1, 0, 0)  # 16 - 24 bytes

    def test_every_kind_has_a_distinct_ordinal(self) -> None:
        """``NetworkStats`` indexes its rows by it."""
        assert sorted(kind.ordinal for kind in MessageKind) == list(range(len(MessageKind)))
        assert [kind.ordinal for kind in ALL_KINDS] == list(range(len(ALL_KINDS)))


class TestFactories:
    def test_publish_size(self) -> None:
        msg = message(K.PUBLISH_TERM, 1, 2, hops=3)
        assert msg.kind is MessageKind.PUBLISH_TERM
        assert (msg.src, msg.dst) == (1, 2)
        assert msg.size_bytes == TERM_BYTES + POSTING_BYTES
        assert msg.hops == 3

    def test_search_size(self) -> None:
        msg = message(K.SEARCH_TERM, 1, 2, 1, 0, 0, 0, hops=4)
        assert msg.kind is MessageKind.SEARCH_TERM
        assert msg.size_bytes == TERM_BYTES + QUERY_HEADER_BYTES
        # A held version and the registered keyword tuple are priced too.
        assert message(K.SEARCH_TERM, 1, 2, 2, 1, 3, 0).size_bytes == (
            QUERY_HEADER_BYTES + 2 * TERM_BYTES + VERSION_BYTES + 3 * TERM_BYTES
        )

    def test_postings_scales_with_entries(self) -> None:
        small = message(K.POSTINGS, 1, 2, 1, 1, 0)
        large = message(K.POSTINGS, 1, 2, 100, 1, 0)
        assert large.size_bytes - small.size_bytes == 99 * POSTING_BYTES
        assert small.hops == 1  # a reply over a known address
        # A slot answered as not modified costs its version alone.
        assert wire_size(K.POSTINGS, 1, 2, 0) - wire_size(K.POSTINGS, 1, 1, 0) == VERSION_BYTES

    def test_empty_postings_header_only(self) -> None:
        assert wire_size(K.POSTINGS, 0, 0, 0) == QUERY_HEADER_BYTES

    def test_query_batch_scales(self) -> None:
        assert wire_size(K.QUERY_BATCH, 10, 40) > wire_size(K.QUERY_BATCH, 0, 0)

    def test_query_batch_exact_size(self) -> None:
        expected = QUERY_HEADER_BYTES + 3 * (QUERY_HEADER_BYTES + 2 * TERM_BYTES)
        assert wire_size(K.QUERY_BATCH, 3, 6) == expected

    def test_query_batch_is_priced_from_integers(self) -> None:
        """``16 + 16·queries + 8·Σ|terms|``.  The parent priced it from a
        float mean, ``16 + int(n · (16 + mean · 8))``, and came out one
        byte short where ``n · (Σ/n)`` rounds below ``Σ`` — 127 for
        (3, 8), 215 for (3, 19)."""
        assert wire_size(K.QUERY_BATCH, 3, 8) == 128
        assert wire_size(K.QUERY_BATCH, 3, 19) == 216
        assert wire_size(K.QUERY_BATCH, 3, 11) == 152
        for queries in range(1, 60):
            for terms in range(queries, 6 * queries):
                assert wire_size(K.QUERY_BATCH, queries, terms) == (
                    16 + 16 * queries + 8 * terms
                )

    def test_counts_must_match_the_row(self) -> None:
        with pytest.raises(TypeError):
            wire_size(K.QUERY_BATCH, 3)
        with pytest.raises(TypeError):
            message(K.RESULT_PROBE, 1, 2, 5)


class TestSizeConstants:
    """The abstract cost-model units DESIGN.md states; cost benches cite
    these numbers, so a change here must be deliberate and documented."""

    def test_documented_values(self) -> None:
        assert TERM_BYTES == 8
        assert POSTING_BYTES == 24
        assert QUERY_HEADER_BYTES == 16
        assert ADDRESS_BYTES == 6

    def test_posting_carries_more_than_a_term(self) -> None:
        # A posting entry (doc id, owner address, TF, length) must cost
        # more than the bare term it is filed under.
        assert POSTING_BYTES > TERM_BYTES

    def test_default_message_size_is_header(self) -> None:
        assert Message(MessageKind.HEARTBEAT, 1, 2).size_bytes == QUERY_HEADER_BYTES

    def test_zero_size_message_allowed(self) -> None:
        assert Message(MessageKind.LOOKUP, 1, 2, size_bytes=0).size_bytes == 0

    def test_factory_sizes_compose_from_constants(self) -> None:
        assert wire_size(K.PUBLISH_TERM) == TERM_BYTES + POSTING_BYTES
        assert wire_size(K.SEARCH_TERM, 1, 0, 0, 0) == TERM_BYTES + QUERY_HEADER_BYTES
        assert wire_size(K.POSTINGS, 5, 1, 0) == (
            QUERY_HEADER_BYTES + 5 * POSTING_BYTES + VERSION_BYTES
        )
        assert wire_size(K.POLL_QUERIES) == QUERY_HEADER_BYTES + TERM_BYTES + VERSION_BYTES


class TestCategories:
    """The table audit: one ``WIRE`` row per kind, four traffic
    categories, and the two rollups that fold by category agree."""

    CATEGORIES = {"write", "query", "routing", "maintenance"}

    def test_partition_is_total(self) -> None:
        for kind in MessageKind:
            assert kind.category in self.CATEGORIES
        assert {kind.category for kind in MessageKind} == self.CATEGORIES

    def test_partition_is_disjoint(self) -> None:
        """Every kind has exactly one row and no row names a non-kind;
        a row is ``(category, fixed >= 0, per-unit bytes > 0)``."""
        assert set(WIRE) == set(MessageKind) and len(WIRE) == len(MessageKind)
        for category, fixed, per_unit in WIRE.values():
            assert category in self.CATEGORIES
            assert isinstance(fixed, int) and fixed >= 0
            assert all(isinstance(b, int) and b > 0 for b in per_unit)

    def test_batch_kinds_are_write_path(self) -> None:
        for kind in (K.PUBLISH_BATCH, K.UNPUBLISH_BATCH, K.POLL_BATCH):
            assert kind.category == "write"

    def test_stats_and_trace_fold_a_mixed_stream_alike(self) -> None:
        """``TraceLog.category_rollup`` reads each kind's row, so a
        stream with every kind in it folds to the message counts
        ``NetworkStats`` holds per kind, summed by category."""
        log = TraceLog()
        transport = PerfectTransport(trace=log)
        stats = NetworkStats()
        for repeat, kind in enumerate(MessageKind, start=1):
            msg = message(kind, 1, 2, *(3,) * len(WIRE[kind][2]))
            for __ in range(repeat):
                transport.deliver(msg)
                stats.record(msg)
        by_stats: dict = {}
        for kind, row in stats.snapshot().items():
            by_stats[kind.category] = by_stats.get(kind.category, 0) + row.messages
        by_trace = {c: s.messages for c, s in log.category_rollup().items()}
        assert by_stats == by_trace
        assert set(by_trace) == self.CATEGORIES


    def test_design_prints_the_table(self) -> None:
        """DESIGN.md §7 states the cost model once, as a table; it is
        the ``WIRE`` rows, kind for kind and number for number."""
        from pathlib import Path

        design = (Path(__file__).resolve().parents[2] / "DESIGN.md").read_text("utf-8")
        printed = {}
        for line in design.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) == 5 and cells[0] in MessageKind.__members__:
                per_unit = () if cells[3] == "—" else tuple(map(int, cells[3].split(",")))
                printed[MessageKind[cells[0]]] = (cells[1], int(cells[2]), per_unit)
        assert printed == WIRE


class TestBatchFactories:
    """Wire sizes of the destination-grouped write messages."""

    def test_publish_batch_scales_with_postings(self) -> None:
        msg = message(K.PUBLISH_BATCH, 1, 2, 5, hops=3)
        assert msg.kind is MessageKind.PUBLISH_BATCH
        assert msg.hops == 3
        assert (
            msg.size_bytes
            == QUERY_HEADER_BYTES + 5 * (TERM_BYTES + POSTING_BYTES)
        )

    def test_unpublish_batch_carries_term_docid_pairs(self) -> None:
        msg = message(K.UNPUBLISH_BATCH, 1, 2, 4, hops=2)
        assert msg.kind is MessageKind.UNPUBLISH_BATCH
        assert msg.size_bytes == QUERY_HEADER_BYTES + 4 * (TERM_BYTES + TERM_BYTES)

    def test_poll_batch_carries_cursors_only(self) -> None:
        msg = message(K.POLL_BATCH, 1, 2, 3, hops=4)
        assert msg.kind is MessageKind.POLL_BATCH
        assert msg.size_bytes == QUERY_HEADER_BYTES + 3 * (TERM_BYTES + VERSION_BYTES)
        with pytest.raises(TypeError):
            message(K.POLL_BATCH, 1, 2, 3, 5)  # no index-term hash count

    def test_a_poll_request_does_not_grow_with_the_index_terms(self) -> None:
        """A document with 20 index terms polls the peer of one of them:
        one (term, cursor) pair, 32 bytes.  With the hash list the peer
        needed for the §3 rule it cost 16 + 16 + 20·8 = 192."""
        from repro.config import ChordConfig
        from repro.core.indexer import IndexingProtocol
        from repro.dht.ring import ChordRing

        ring = ChordRing(ChordConfig(num_peers=16, id_bits=32, seed=3))
        protocol = IndexingProtocol(ring)
        index_terms = [f"term{i:02d}" for i in range(20)]
        results, failed, __ = protocol.poll_batch(
            ring.live_ids[0], [{index_terms[0]: -1}]
        )
        assert results == {(0, index_terms[0]): ([], -1)} and not failed
        polls = ring.stats.kind(K.POLL_BATCH)
        assert (polls.messages, polls.bytes) == (1, 32)

    def test_batch_of_n_cheaper_than_n_singles(self) -> None:
        n = 8
        # Each single message also pays its own header; the batch pays
        # one header for all n postings.
        assert wire_size(K.PUBLISH_BATCH, n) < n * (
            wire_size(K.PUBLISH_TERM) + QUERY_HEADER_BYTES
        )

    def test_units_carried_inverts_a_one_unit_row(self) -> None:
        sizes = [wire_size(K.PUBLISH_BATCH, n) for n in (0, 1, 20, 333)]
        assert units_carried(K.PUBLISH_BATCH, len(sizes), sum(sizes)) == 354


#: ``(kind, counts) → bytes`` as the commit before the table priced
#: them: the sixteen ``*_message`` constructors, then the seven sites
#: that built a ``Message`` with a size of their own.  QUERY_BATCH rows
#: are ones the old float formula got exactly; the two re-rowed senders
#: keep their price under their new kind.  The two poll requests are
#: re-priced: since the owner applies the §3 closest-hash rule they
#: carry (term, cursor) pairs and no index-term hashes, so POLL_BATCH is
#: ``16 + 16·pairs`` and POLL_QUERIES one pair, 32 bytes.  The read pair
#: is re-stated since a fetch is conditional: SEARCH_TERM counts (terms,
#: versions held, keywords registered) at 8 bytes each, POSTINGS
#: (postings shipped, slots answered) at 24 and 8 — each row re-counted
#: at its old byte total.  HEARTBEAT is re-priced: one probes all the
#: postings an owner has at a peer, so it carries (term hash, doc id)
#: pairs like UNPUBLISH_BATCH, ``16 + 16·postings``; its old row is the
#: empty probe and the rows with postings come last, so no row id moves.
GOLDEN = [
    (K.PUBLISH_TERM, (), 32),
    (K.UNPUBLISH_TERM, (), 24),
    (K.SEARCH_TERM, (0, 0, 0, 0), 16),
    (K.SEARCH_TERM, (1, 0, 0, 0), 24),     # one term, nothing held or registered
    (K.SEARCH_TERM, (1, 1, 1, 0), 40),     # one-keyword query, its version held
    (K.SEARCH_TERM, (2, 2, 3, 0), 72),
    (K.POSTINGS, (0, 0, 0), 16),
    (K.POSTINGS, (0, 3, 0), 40),           # three slots, none modified
    (K.POSTINGS, (19, 3, 0), 496),
    (K.POSTINGS, (999, 3, 0), 24016),
    (K.QUERY_BATCH, (0, 0), 16),
    (K.QUERY_BATCH, (1, 3), 56),
    (K.QUERY_BATCH, (2, 6), 96),
    (K.QUERY_BATCH, (4, 10), 160),
    (K.QUERY_BATCH, (5, 12), 192),
    (K.QUERY_BATCH, (10, 35), 456),
    (K.QUERY_BATCH, (66, 200), 2672),
    (K.RESULT_PROBE, (), 16),
    (K.RESULT_VALUE, (0,), 16),
    (K.RESULT_VALUE, (1,), 32),
    (K.RESULT_VALUE, (20,), 336),
    (K.RESULT_STORE, (0, 0), 16),
    (K.RESULT_STORE, (20, 3), 384),
    (K.RESULT_STORE, (5, 1), 112),
    (K.RESULT_STORE, (100, 8), 1744),
    (K.VERSION_PROBE, (0,), 16),
    (K.VERSION_PROBE, (1,), 24),
    (K.VERSION_PROBE, (4,), 48),
    (K.VERSION_VALUE, (0,), 16),
    (K.VERSION_VALUE, (1,), 24),
    (K.VERSION_VALUE, (4,), 48),
    (K.PUBLISH_BATCH, (0,), 16),
    (K.PUBLISH_BATCH, (1,), 48),
    (K.PUBLISH_BATCH, (20,), 656),
    (K.PUBLISH_BATCH, (333,), 10672),
    (K.UNPUBLISH_BATCH, (0,), 16),
    (K.UNPUBLISH_BATCH, (1,), 32),
    (K.UNPUBLISH_BATCH, (20,), 336),
    (K.POLL_BATCH, (0,), 16),
    (K.POLL_BATCH, (1,), 32),
    (K.POLL_BATCH, (7,), 128),
    (K.POLL_BATCH, (20,), 336),
    (K.SYNC_DIGEST, (0,), 16),
    (K.SYNC_DIGEST, (1,), 40),
    (K.SYNC_DIGEST, (12,), 304),
    (K.SYNC_DELTA, (0,), 16),
    (K.SYNC_DELTA, (1,), 48),
    (K.SYNC_DELTA, (9,), 304),
    (K.SYNC_FULL, (0,), 16),
    (K.SYNC_FULL, (1,), 48),
    (K.SYNC_FULL, (50,), 1616),
    (K.LOOKUP, (), 22),                 # dht/ring.py
    (K.REPLICATE, (0, 0), 0),           # dht/replication.py
    (K.REPLICATE, (1, 1), 48),
    (K.REPLICATE, (10, 0), 160),
    (K.REPLICATE, (10, 4), 288),
    (K.REPLICATE, (250, 250), 12000),
    (K.HEARTBEAT, (0,), 16),            # core/maintenance.py
    (K.RECONCILE, (), 24),              # core/maintenance.py
    (K.POLL_QUERIES, (), 32),           # core/indexer.py
    (K.POLL_BATCH, (2,), 48),           # core/indexer.py, whatever |index terms|
    (K.POLL_BATCH, (12,), 208),
    (K.POLL_BATCH, (45,), 736),
    (K.ADVISE_HOT_TERM, (), 16),        # extensions/load_balance.py
    # A repeat query's registration by digest: SEARCH_TERM counts digests
    # (8 bytes each) after the keywords, POSTINGS the slots that could not
    # resolve one (a flag byte each), and REGISTER, the fallback, carries
    # the keywords.
    (K.SEARCH_TERM, (1, 1, 0, 1), 40),  # one term, its version held, by digest
    (K.SEARCH_TERM, (2, 2, 0, 1), 56),
    (K.POSTINGS, (0, 3, 1), 41),
    (K.REGISTER, (1,), 24),
    (K.REGISTER, (5,), 56),
    (K.HEARTBEAT, (1,), 32),
    (K.HEARTBEAT, (40,), 656),
]


class TestGoldenSizes:
    def test_every_kind_has_a_golden_row(self) -> None:
        assert {kind for kind, __, __ in GOLDEN} == set(MessageKind)
        assert len(GOLDEN) >= 60

    @pytest.mark.parametrize(
        "kind, counts, size", GOLDEN, ids=lambda v: getattr(v, "name", None)
    )
    def test_wire_size_is_the_parents_price(self, kind, counts, size) -> None:
        assert wire_size(kind, *counts) == size
        assert message(kind, 1, 2, *counts).size_bytes == size

    def test_a_digest_saves_all_but_one_keyword(self) -> None:
        for keywords in (1, 2, 5, 12):
            assert wire_size(K.SEARCH_TERM, 2, 1, keywords, 0) - wire_size(
                K.SEARCH_TERM, 2, 1, 0, 1
            ) == 8 * (keywords - 1)

    def test_the_read_pair_extends_the_unconditional_price(self) -> None:
        """A request that holds and registers nothing costs what the
        unconditional one did; a reply adds one version per slot."""
        for n in (0, 1, 3, 7, 1000):
            assert wire_size(K.SEARCH_TERM, n, 0, 0, 0) == 16 + 8 * n
            assert wire_size(K.POSTINGS, n, 0, 0) == 16 + 24 * n
            assert wire_size(K.POSTINGS, n, 2, 0) == 16 + 24 * n + 16
