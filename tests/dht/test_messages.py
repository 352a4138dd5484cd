"""Tests for message types and the size model."""

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
    postings_message,
    publish_message,
    query_batch_message,
    search_message,
)


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


class TestFactories:
    def test_publish_size(self) -> None:
        msg = publish_message(1, 2, hops=3)
        assert msg.kind is MessageKind.PUBLISH_TERM
        assert msg.size_bytes == TERM_BYTES + POSTING_BYTES
        assert msg.hops == 3

    def test_search_size(self) -> None:
        msg = search_message(1, 2, hops=4)
        assert msg.kind is MessageKind.SEARCH_TERM
        assert msg.size_bytes == TERM_BYTES + QUERY_HEADER_BYTES

    def test_postings_scales_with_entries(self) -> None:
        small = postings_message(1, 2, num_postings=1)
        large = postings_message(1, 2, num_postings=100)
        assert large.size_bytes - small.size_bytes == 99 * POSTING_BYTES

    def test_empty_postings_header_only(self) -> None:
        assert postings_message(1, 2, 0).size_bytes == QUERY_HEADER_BYTES

    def test_query_batch_scales(self) -> None:
        none = query_batch_message(1, 2, 0, 0.0)
        some = query_batch_message(1, 2, 10, 4.0)
        assert some.size_bytes > none.size_bytes

    def test_query_batch_exact_size(self) -> None:
        msg = query_batch_message(1, 2, num_queries=3, terms_per_query=2.0)
        expected = QUERY_HEADER_BYTES + 3 * (QUERY_HEADER_BYTES + 2 * TERM_BYTES)
        assert msg.size_bytes == expected


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
        assert publish_message(1, 2, 1).size_bytes == TERM_BYTES + POSTING_BYTES
        assert search_message(1, 2, 1).size_bytes == TERM_BYTES + QUERY_HEADER_BYTES
        assert (
            postings_message(1, 2, 5).size_bytes
            == QUERY_HEADER_BYTES + 5 * POSTING_BYTES
        )


class TestCategories:
    """The four-way traffic partition feeding the per-category rollups
    (ISSUE 5): every kind categorized, no kind in two buckets."""

    def test_partition_is_total(self) -> None:
        from repro.dht.messages import category_of

        for kind in ALL_KINDS:
            assert category_of(kind) in {
                "write",
                "query",
                "routing",
                "maintenance",
            }

    def test_partition_is_disjoint(self) -> None:
        """The name table behind ``category_of`` lists every kind in
        exactly one bucket, and no name that is not a kind."""
        from repro.net import trace

        buckets = (
            trace.WRITE_PATH_KIND_NAMES,
            trace.QUERY_PATH_KIND_NAMES,
            trace.ROUTING_KIND_NAMES,
            trace.MAINTENANCE_KIND_NAMES,
        )
        assert sum(len(b) for b in buckets) == len(ALL_KINDS)
        assert frozenset().union(*buckets) == {kind.value for kind in ALL_KINDS}

    def test_batch_kinds_are_write_path(self) -> None:
        from repro.dht.messages import category_of

        for kind in (
            MessageKind.PUBLISH_BATCH,
            MessageKind.UNPUBLISH_BATCH,
            MessageKind.POLL_BATCH,
        ):
            assert category_of(kind) == "write"


class TestBatchFactories:
    """Wire sizes of the destination-grouped write messages."""

    def test_publish_batch_scales_with_postings(self) -> None:
        from repro.dht.messages import publish_batch_message

        msg = publish_batch_message(1, 2, 5, hops=3)
        assert msg.kind is MessageKind.PUBLISH_BATCH
        assert msg.hops == 3
        assert (
            msg.size_bytes
            == QUERY_HEADER_BYTES + 5 * (TERM_BYTES + POSTING_BYTES)
        )

    def test_unpublish_batch_carries_term_docid_pairs(self) -> None:
        from repro.dht.messages import unpublish_batch_message

        msg = unpublish_batch_message(1, 2, 4, hops=2)
        assert msg.kind is MessageKind.UNPUBLISH_BATCH
        assert msg.size_bytes == QUERY_HEADER_BYTES + 4 * (TERM_BYTES + TERM_BYTES)

    def test_poll_batch_carries_cursors_and_index_hashes(self) -> None:
        from repro.dht.messages import VERSION_BYTES, poll_batch_message

        msg = poll_batch_message(1, 2, num_terms=3, num_index_terms=5, hops=4)
        assert msg.kind is MessageKind.POLL_BATCH
        assert (
            msg.size_bytes
            == QUERY_HEADER_BYTES
            + 3 * (TERM_BYTES + VERSION_BYTES)
            + 5 * TERM_BYTES
        )

    def test_batch_of_n_cheaper_than_n_singles(self) -> None:
        from repro.dht.messages import publish_batch_message

        n = 8
        batch = publish_batch_message(1, 2, n, hops=1)
        singles = n * publish_message(1, 2, 1).size_bytes
        # Each single message also pays its own header; the batch pays
        # one header for all n postings.
        assert batch.size_bytes < singles + n * QUERY_HEADER_BYTES
