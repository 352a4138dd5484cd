"""Algorithm 1 (incremental) vs the naive reprocess-everything learner.

The paper claims Algorithm 1 is (a) equivalent to the naive scheme and
(b) "very efficient" because each iteration touches only the incremental
query set Q'.  We verify (a) exactly and measure (b): the incremental
learner's per-iteration work stays flat while the naive learner's grows
linearly with history, counted in membership probes against the
document's terms.
"""

from __future__ import annotations

import random

from repro.core.learning import IncrementalLearner, naive_rank_terms
from repro.corpus import Document

VOCAB = [f"term{i:02d}" for i in range(40)]
DOC = Document("bench-doc", " ".join(VOCAB * 3))


def make_queries(count: int, seed: int) -> list:
    rng = random.Random(seed)
    queries = []
    for __ in range(count):
        size = rng.randint(1, 4)
        queries.append(tuple(rng.sample(VOCAB + ["noise1", "noise2"], size)))
    return queries


BATCH = 200
ITERATIONS = 8


def test_equivalence_across_iterations() -> None:
    """After every batch, the incremental rank list equals the naive
    recomputation over the whole history."""
    learner = IncrementalLearner(DOC)
    history: list = []
    for i in range(ITERATIONS):
        batch = make_queries(BATCH, seed=i)
        history.extend(batch)
        learner.observe(batch)
        assert learner.rank_list() == naive_rank_terms(DOC, history)


def test_bench_incremental_iteration(benchmark) -> None:
    """Cost of one incremental iteration with a long history behind it."""
    learner = IncrementalLearner(DOC)
    for i in range(ITERATIONS):
        learner.observe(make_queries(BATCH, seed=i))
    fresh = make_queries(BATCH, seed=999)
    benchmark(lambda: IncrementalLearner(DOC).observe(fresh))


def test_bench_naive_full_history(benchmark) -> None:
    """Cost of the naive learner over the same accumulated history —
    compare with the incremental bench above."""
    history: list = []
    for i in range(ITERATIONS):
        history.extend(make_queries(BATCH, seed=i))
    history.extend(make_queries(BATCH, seed=999))
    benchmark(lambda: naive_rank_terms(DOC, history))


class ProbeSet(set):
    """A document's term set that counts the membership probes made
    against it, on its document: the work either learner does per query
    term."""

    def __init__(self, terms, document: "ProbedDocument") -> None:
        super().__init__(terms)
        self.document = document

    def __contains__(self, term: object) -> bool:
        self.document.probes += 1
        return set.__contains__(self, term)


class ProbedDocument(Document):
    """A document whose term sets count the probes made against them."""

    probes = 0

    def term_set(self) -> ProbeSet:
        return ProbeSet(super().term_set(), self)


def probed(document: Document) -> ProbedDocument:
    """A copy of *document* that counts the probes against its terms."""
    return ProbedDocument(document.doc_id, document.text)


def test_bench_learning_speedup(benchmark, record_result) -> None:
    """The paper's efficiency claim in operations: per iteration, the
    incremental learner probes the document's terms once per term of the
    new batch Q' — flat — while the naive learner reprobes the whole
    history, growing linearly with it.  Counts, not wall time, so the
    table reproduces byte for byte."""

    def measure():
        incremental_doc, naive_doc = probed(DOC), probed(DOC)
        learner = IncrementalLearner(incremental_doc)
        history: list = []
        incremental = []
        naive = []
        for i in range(ITERATIONS):
            batch = make_queries(BATCH, seed=i)
            history.extend(batch)

            before = incremental_doc.probes
            learner.observe(batch)
            learner.rank_list()
            incremental.append(incremental_doc.probes - before)

            before = naive_doc.probes
            naive_rank_terms(naive_doc, history)
            naive.append(naive_doc.probes - before)
        return incremental, naive

    incremental_probes, naive_probes = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = ["iter   incremental(probes)   naive(probes)   history"]
    for i, (inc, nai) in enumerate(zip(incremental_probes, naive_probes), 1):
        lines.append(f"{i:>4}   {inc:>19}   {nai:>13}   {i * BATCH:>7}")
    record_result("learning_speedup", "\n".join(lines))

    # The last naive iteration processes 8× the queries of the first;
    # the incremental learner's batches are constant-size.
    assert naive_probes[-1] > naive_probes[0] * 2
    late_incremental = sorted(incremental_probes[4:])[len(incremental_probes[4:]) // 2]
    early_incremental = sorted(incremental_probes[:4])[2]
    assert late_incremental < early_incremental * 3
