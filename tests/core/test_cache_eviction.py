"""Query-cache eviction, reached through the protocol.

A system whose indexing peers keep only ``CAPACITY`` arrivals per term
slot fills its slots by repeated searches and learning rounds.  Every
arrival a cache takes is recorded as it happens — what ``add`` and
``add_repeat`` return — so the record's last ``CAPACITY`` arrivals are
what the cache must hold.  Against it:

- every learning poll returns exactly the recorded arrivals past its
  cursor that the cache still holds — the surviving suffix where an
  eviction passed the cursor;
- a repeat whose digest lost its last arrival at one slot costs one
  REGISTER there, and is cached again;
- the ``query_cache_bounds`` invariant holds throughout.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.core.indexer import IndexingProtocol
from repro.core.metadata import CachedQuery, QueryCache
from repro.corpus.relevance import Query
from repro.dht.messages import MessageKind
from repro.sim.invariants import InvariantChecker

CAPACITY = 4


def bounds_hold(system) -> bool:
    report = InvariantChecker(system).check(quiescent=False)
    return "query_cache_bounds" in report.checked and not any(
        v.invariant == "query_cache_bounds" for v in report.violations
    )


@pytest.fixture()
def arrivals(monkeypatch) -> Dict[int, List[CachedQuery]]:
    """``id(cache) → every arrival it took``, in order."""
    taken: Dict[int, List[CachedQuery]] = {}
    add, add_repeat = QueryCache.add, QueryCache.add_repeat

    def recording_add(self, *args, **kwargs):
        arrival = add(self, *args, **kwargs)
        taken.setdefault(id(self), []).append(arrival)
        return arrival

    def recording_repeat(self, digest):
        arrival = add_repeat(self, digest)
        if arrival is not None:
            taken.setdefault(id(self), []).append(arrival)
        return arrival

    monkeypatch.setattr(QueryCache, "add", recording_add)
    monkeypatch.setattr(QueryCache, "add_repeat", recording_repeat)
    return taken


@pytest.fixture()
def system(micro):
    system = micro.build({"sprite": {"query_cache_size": CAPACITY}})
    system.share_corpus()
    return system


def test_a_poll_past_an_eviction_returns_the_surviving_suffix(
    system, micro, arrivals, monkeypatch
) -> None:
    polls = []  # (cursor, first cached sequence, answer, expected)
    serve_poll = IndexingProtocol._serve_poll

    def recording_poll(self, node, term, cursor_of):
        answer = serve_poll(self, node, term, cursor_of)
        records, latest = answer
        slot = node.store.get(self.term_hash(term))
        if latest is not None and len(slot.cache):
            cursor, survivors = cursor_of[term], arrivals[id(slot.cache)][-CAPACITY:]
            expected = [a for a in survivors if a.sequence > cursor]
            # A poll ships records, the newest one the arrival at `latest`.
            assert latest == survivors[-1].sequence
            shipped = [
                CachedQuery(*record, sequence)
                for sequence, record in enumerate(records, latest + 1 - len(records))
            ]
            polls.append((cursor, survivors[0].sequence, shipped, expected))
        return answer

    monkeypatch.setattr(IndexingProtocol, "_serve_poll", recording_poll)
    system.register_queries(micro.train)
    for repeats in (5, 2, 5, 2):  # more arrivals than the cache holds, then fewer
        system.run_learning_iteration()
        for query in micro.train * repeats:
            system.search(query)
        assert bounds_hold(system)

    for cursor, __, answer, expected in polls:
        assert answer == expected
    # Both sides of the offset: an earlier poll's cursor that an eviction
    # passed (the whole cache answers), and one whose arrival is cached.
    assert any(0 <= cursor < first - 1 and answer for cursor, first, answer, __ in polls)
    assert any(first <= cursor < answer[0].sequence for cursor, first, answer, __ in polls if answer)


def test_a_digest_whose_last_arrival_was_evicted_falls_back_to_one_register(
    system, micro, arrivals
) -> None:
    ring, protocol = system.ring, system.protocol
    query = next(q for q in micro.test if len(set(q.terms)) > 1)
    term = query.terms[0]
    key = protocol.term_hash(term)

    def registers() -> int:
        return ring.stats.kind(MessageKind.REGISTER).messages

    system.search(query)
    system.search(query)  # by digest: every slot resolves it
    assert registers() == 0
    cache = ring.node(ring.successor_of(key)).store[key].cache
    assert [a.terms for a in cache][-2:] == [query.terms] * 2

    flood = Query("flood", (term,))
    for __ in range(CAPACITY):
        system.search(flood)
    assert query.terms not in {a.terms for a in cache}
    assert bounds_hold(system)

    system.search(query)
    assert registers() == 1  # the one slot that evicted it
    for t in set(query.terms):
        k = protocol.term_hash(t)
        assert list(ring.node(ring.successor_of(k)).store[k].cache)[-1].terms == query.terms
    assert list(cache) == arrivals[id(cache)][-CAPACITY:]
    assert bounds_hold(system)
