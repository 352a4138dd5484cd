"""Memory footprint of the reference index, the learners and the
indexing protocol's term-key memo.

Each document's term counts exist once, in ``Document.term_freqs``.
The centralized index keeps one raw count per posting (a dict entry,
about 30–40 B), not a ``Posting`` object (about 160 B); a learner tests
membership against the document's own map and holds no copy of its
term set (such a copy costs about 2.5 KB per document of the small
corpus).  Sizes come from ``tracemalloc``: bytes still allocated after
the build, with the documents analyzed beforehand.  The position memo
behind ``IdSpace.hash_key`` (one per ring width, shared by every ring of
that width) lives as long as the process; its bound, and the bytes a
full memo holds, are pinned here.  So is what the ring's route cache
keeps: a route per (querying peer, query term) resolved, none for an
owner, which reaches its indexing peers through the peers it knows.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from functools import partial

import pytest

from repro.core import SpriteSystem
from repro.core.learning import IncrementalLearner
from repro.dht.hashing import HASH_KEYS, IdSpace, md5_hash
from repro.ir import InvertedIndex
from repro.memo import BoundedMemo

#: Bytes per posting the counts-backed index may hold.
INDEX_BYTES_PER_POSTING = 64
#: Bytes per document a learner may hold before it has seen a query.
LEARNER_BYTES_PER_DOCUMENT = 512
#: Keys a position memo may remember before it is cleared, and the bytes
#: per entry a full memo may hold: its table (about 29 B an entry on
#: Python 3.11+, 40 B on 3.9 and 3.10) plus each position's int (about
#: 31 B at 32 bits).  The key strings belong to the memo's callers.
HASH_KEY_BOUND = 1 << 18
HASH_KEY_BYTES_PER_ENTRY = 96
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
        doc.term_freqs  # analyze outside the measured region
    return docs


def test_the_index_keeps_a_count_per_posting(small_env, documents) -> None:
    __, used = retained_bytes(lambda: InvertedIndex.from_corpus(small_env.corpus))
    per_posting = used / sum(len(doc.term_freqs) for doc in documents)
    assert per_posting <= INDEX_BYTES_PER_POSTING, per_posting


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
