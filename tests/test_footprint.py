"""Memory footprint of the documents, the reference index, the learners
and the indexing protocol's term-key memo.

Each document's term counts exist once, in two flat columns of the
``Document``: its distinct terms in a tuple and their counts in an
array (about 15 B per distinct term of the small corpus; about 29 B
while they were a ``Counter``).  The centralized index keeps a term's postings as two flat columns, its
doc ids in a list and their raw counts in an array (about 12 B a
posting; a dict entry per posting cost about 30–50 B and a ``Posting``
object about 160 B), and a ranked list keeps its entries the same way,
a doc id and a C double (16 B an entry; about 96 B while each entry was
a ``ScoredDoc`` holding a boxed float).  A learner tests
membership against a set of the document's terms built for that call
and holds no copy of its term set (such a copy costs about 2.5 KB per
document of the small corpus).  Sizes come from ``tracemalloc``: bytes still allocated after
the build, with the documents analyzed beforehand.  The position memo
behind ``IdSpace.hash_key`` (one per ring width, shared by every ring of
that width) lives as long as the process; its bound, and the bytes a
full memo holds, are pinned here.  So is what the ring's route cache
keeps: a route per (querying peer, query term) resolved, none for an
owner, which reaches its indexing peers through the peers it knows.
And so is what a query cache keeps: an arrival is a reference to a
record its tuple's arrivals share, not a tuple of its own, and a cache
that never took one holds no FIFO.  An experiment environment keeps no
``TopicModel``: the generator's per-document topic mixtures (about
760 KB for the paper configuration's 2,500 documents) are read by the
generator alone.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
import types
from functools import partial

import pytest

from repro.core import SpriteSystem
from repro.core.learning import IncrementalLearner
from repro.core.metadata import QueryCache, query_digest
from repro.dht.hashing import HASH_KEYS, IdSpace, md5_hash
from repro.corpus import Document, TopicModel
from repro.ir import InvertedIndex, RankedList
from repro.memo import BoundedMemo

#: Bytes per distinct (document, term) a document's analysis may leave:
#: a tuple slot and a 4-byte count, with the two columns' headers (about
#: 15 B on the small corpus, about 44 terms a document; about 29 B while
#: the counts were a ``Counter``).
DOCUMENT_BYTES_PER_TERM = 18
#: Bytes per posting the counts-backed index may hold.
INDEX_BYTES_PER_POSTING = 64
#: Bytes a posting may add to a term that already has postings: a list
#: slot and a 4-byte count, with the columns' over-allocation (about
#: 13 B; 30–50 B while each posting was a dict entry).
INDEX_BYTES_PER_ADDED_POSTING = 16
#: Bytes per entry a deep ranked list may hold, its scores included
#: (about 16 B; about 96 B while each entry was a named tuple).
RANKED_BYTES_PER_ENTRY = 24
#: Bytes per document a learner may hold before it has seen a query.
LEARNER_BYTES_PER_DOCUMENT = 512
#: Keys a position memo may remember before it is cleared, and the bytes
#: per entry a full memo may hold: its table (about 29 B an entry on
#: Python 3.11+, 40 B on 3.9 and 3.10) plus each position's int (about
#: 31 B at 32 bits).  The key strings belong to the memo's callers.
HASH_KEY_BOUND = 1 << 18
HASH_KEY_BYTES_PER_ENTRY = 96
#: Bytes a repeat arrival may add to a query cache: one FIFO reference,
#: 8 B in a deque block of 64 (about 108 B while each arrival was a named
#: tuple and its sequence).
CACHE_BYTES_PER_REPEAT = 16
#: Bytes a query cache that never took an arrival may hold (about 210 B
#: on Python 3.11): less than one empty deque (624 B), since the FIFO
#: comes with the first arrival.
EMPTY_CACHE_BYTES = 400
#: Bytes a cache filled to the default capacity of 2,000 arrivals may
#: hold, of one tuple repeated (about 18 KB; 218 KB while each arrival
#: was a named tuple) and of 2,000 distinct tuples (about 371 KB: a
#: record, an index entry and a sequence per tuple; 291 KB while the
#: index pointed at the arrival itself).
FULL_CACHE_BYTES_REPEATED = 24_000
FULL_CACHE_BYTES_DISTINCT = 400_000
#: Route-cache entries an owner-only build (share, then learn) may leave
#: (518 on the small corpus while every owner lookup stored its route).
ROUTES_AFTER_OWNER_BUILD = 0


def retained_bytes(build):
    """``(result, bytes allocated by build() and still held)``."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, after - before


@pytest.fixture(scope="module")
def documents(small_env):
    docs = list(small_env.corpus)
    for doc in docs:
        doc.analyze()  # outside the measured region
    return docs


def test_a_document_keeps_its_counts_in_two_columns(documents) -> None:
    """Fresh copies of the analyzed documents, analyzed in the measured
    region: the analyzer's vocabulary memo is warm, so what stays is
    the copies' columns."""
    copies = [Document(doc.doc_id, doc.text) for doc in documents]

    def analyze() -> None:
        for copy in copies:
            copy.analyze()

    __, used = retained_bytes(analyze)
    per_term = used / sum(copy.unique_terms for copy in copies)
    assert per_term <= DOCUMENT_BYTES_PER_TERM, per_term


def test_the_index_keeps_a_count_per_posting(small_env, documents) -> None:
    __, used = retained_bytes(lambda: InvertedIndex.from_corpus(small_env.corpus))
    per_posting = used / sum(doc.unique_terms for doc in documents)
    assert per_posting <= INDEX_BYTES_PER_POSTING, per_posting


def test_a_posting_costs_a_doc_id_slot_and_a_count(small_env, documents) -> None:
    """The marginal cost: the corpus indexed again under fresh doc ids,
    so every posting lands in a term that already has its columns."""
    again = [
        Document(f"{doc.doc_id}'", "", _terms=doc._terms, _counts=doc._counts, _length=doc.length)
        for doc in documents
    ]
    tracemalloc.start()  # before the first pass, so its columns are traced
    try:
        index = InvertedIndex.from_corpus(small_env.corpus)
        __, used = retained_bytes(lambda: [index.add_document(doc) for doc in again])
    finally:
        tracemalloc.stop()
    per_posting = used / sum(doc.unique_terms for doc in again)
    assert index.num_documents == 2 * len(documents)
    assert per_posting <= INDEX_BYTES_PER_ADDED_POSTING, per_posting


def test_a_deep_ranking_costs_a_doc_id_slot_and_a_double() -> None:
    """Deep enough that what the sort's pairs leave on CPython's tuple
    free list (about 112 KB) stays a small share of the measure."""
    doc_ids = [f"d{i:06d}" for i in range(50_000)]
    ranked, used = retained_bytes(
        lambda: RankedList({doc_id: i / 7 for i, doc_id in enumerate(doc_ids)})
    )
    assert len(ranked) == len(doc_ids)
    assert used / len(ranked) <= RANKED_BYTES_PER_ENTRY, used / len(ranked)


def reachable(root):
    """Every object *root* reaches through ``gc.get_referents``, not
    counting classes, modules and functions (through them everything
    the process holds is reachable)."""
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen = {id(root)}
    stack = [root]
    while stack:
        obj = stack.pop()
        yield obj
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, opaque):
                seen.add(id(ref))
                stack.append(ref)


def test_an_environment_keeps_no_topic_model(small_env) -> None:
    assert not [obj for obj in reachable(small_env) if isinstance(obj, TopicModel)]


def test_a_learner_copies_no_term_set(documents) -> None:
    learners, used = retained_bytes(lambda: [IncrementalLearner(doc) for doc in documents])
    per_document = used / len(learners)
    assert per_document <= LEARNER_BYTES_PER_DOCUMENT, per_document


def test_the_position_memo_is_bounded() -> None:
    assert HASH_KEYS == HASH_KEY_BOUND
    memo = IdSpace(32).hash_key.__self__
    assert isinstance(memo, BoundedMemo) and memo._bound == HASH_KEYS
    keys = [f"term{i}" for i in range(HASH_KEYS + 1)]
    full = BoundedMemo(partial(md5_hash, bits=32), HASH_KEYS)
    for key in keys[:HASH_KEYS]:
        full[key]
    assert len(full) == HASH_KEYS
    used = sys.getsizeof(full) + sum(map(sys.getsizeof, full.values()))
    assert used / HASH_KEYS <= HASH_KEY_BYTES_PER_ENTRY, used / HASH_KEYS
    # One key past the bound clears the memo before it is remembered.
    assert full[keys[-1]] == md5_hash(keys[-1], 32)
    assert len(full) == 1
    assert full[keys[0]] == md5_hash(keys[0], 32)


def test_only_reads_keep_routes(small_env) -> None:
    config = small_env.config
    system = SpriteSystem(
        small_env.corpus, sprite_config=config.sprite, chord_config=config.chord
    )
    system.bulk_share()
    system.run_learning()
    cache = system.ring.route_cache
    assert len(cache) <= ROUTES_AFTER_OWNER_BUILD, len(cache)
    system.register_queries(small_env.train)
    read_routes = {
        (system._issuer_for(query), system.protocol.term_hash(term))
        for query in small_env.train
        for term in query.terms
    }
    assert 0 < len(cache) <= len(read_routes)


def test_a_repeat_arrival_costs_one_reference() -> None:
    terms = ("alpha", "beta")
    digest = query_digest(terms)
    cache = QueryCache(capacity=100_000)
    cache.add(terms, 1 << 40, digest)

    def repeats() -> None:
        for __ in range(10_000):
            cache.add_repeat(digest)

    __, used = retained_bytes(repeats)
    assert len(cache) == 10_001
    assert used / 10_000 <= CACHE_BYTES_PER_REPEAT, used / 10_000


def test_a_cache_that_never_took_an_arrival_holds_no_fifo() -> None:
    caches, used = retained_bytes(lambda: [QueryCache(capacity=2000) for __ in range(1000)])
    assert used / len(caches) <= EMPTY_CACHE_BYTES, used / len(caches)


def test_a_full_cache_is_pinned() -> None:
    tuples = [(f"term{i}", "shared") for i in range(2000)]
    hashes = [(1 << 40) + i for i in range(len(tuples))]
    digests = [query_digest(terms) for terms in tuples]

    def repeated() -> QueryCache:
        cache = QueryCache(capacity=2000)
        cache.add(tuples[0], hashes[0], digests[0])
        for __ in range(len(tuples) - 1):
            cache.add_repeat(digests[0])
        return cache

    def distinct() -> QueryCache:
        cache = QueryCache(capacity=2000)
        for terms, query_hash, digest in zip(tuples, hashes, digests):
            cache.add(terms, query_hash, digest)
        return cache

    for build, bound in ((repeated, FULL_CACHE_BYTES_REPEATED), (distinct, FULL_CACHE_BYTES_DISTINCT)):
        cache, used = retained_bytes(build)
        assert len(cache) == cache.capacity
        assert used <= bound, (build.__name__, used)
