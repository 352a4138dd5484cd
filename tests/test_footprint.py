"""Memory footprint of the reference index and of the learners.

Each document's term counts exist once, in ``Document.term_freqs``.
The centralized index keeps one raw count per posting (a dict entry,
about 30–40 B), not a ``Posting`` object (about 160 B); a learner tests
membership against the document's own map and holds no copy of its
term set (such a copy costs about 2.5 KB per document of the small
corpus).  Sizes come from ``tracemalloc``: bytes still allocated after
the build, with the documents analyzed beforehand.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.learning import IncrementalLearner
from repro.ir import InvertedIndex

#: Bytes per posting the counts-backed index may hold.
INDEX_BYTES_PER_POSTING = 64
#: Bytes per document a learner may hold before it has seen a query.
LEARNER_BYTES_PER_DOCUMENT = 512


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
    index, used = retained_bytes(lambda: InvertedIndex.from_corpus(small_env.corpus))
    per_posting = used / index.total_postings
    assert per_posting <= INDEX_BYTES_PER_POSTING, per_posting


def test_a_learner_copies_no_term_set(documents) -> None:
    learners, used = retained_bytes(lambda: [IncrementalLearner(doc) for doc in documents])
    per_document = used / len(learners)
    assert per_document <= LEARNER_BYTES_PER_DOCUMENT, per_document
