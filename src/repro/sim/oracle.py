"""The differential oracle: SPRITE checked against simpler truths.

Every switch on :class:`~repro.config.SpriteConfig` /
:class:`~repro.config.ChordConfig` that claims to change speed,
storage or routing but *never results* owes the oracle a proof.  The
proofs share one shape, so they are rows of one table,
:data:`ORACLE_ROWS`, run by one routine, :meth:`DifferentialOracle.check`:

    build two systems from the oracle's base configuration, the second
    with the row's ``delta`` applied; replay the same seeded flow
    through both on a churn-free ring; require what the row names under
    ``equal`` to coincide *exactly* — score bits included, because
    every path performs the same floating-point operations in the same
    order.

A row names a **flow** —

``learn``
    share → register the training queries → learn;
``bulk-churn``
    bulk share → register → learn → withdraw and re-share a fifth of
    the corpus (the write-heavy flow);

— then queries both systems with the test set for ``rounds`` rounds
(``cache=False``: comparing execution, not mutating cache state) and
compares either or both of

``rankings``
    every test-query ranking, documents and score bits;
``fingerprint``
    :func:`write_state_fingerprint` after the flow — every slot's
    postings, aggregates, query-cache cursor and cached queries, the
    global order in which slot versions were assigned, and every
    owner's index terms, poll cursors and learner statistics.

Adding a comparison is one :class:`OracleRow` entry; a tier-1 test
fails when a result-neutral switch has no row.  (A reference
implementation is not a switch: ``tests/twins.py`` replays both flows
on twin systems, one of them with the reference installed.)

One comparison has a different shape and keeps its own body, reached
through the same :meth:`DifferentialOracle.check_all` — the
**centralized baseline**: with learning taken out of the picture by
indexing *every* term (F = ∞) and the assumed corpus size pinned to the
true corpus size, SPRITE's distributed computation degenerates to
exactly the centralized TF-IDF of :mod:`repro.ir` (Lee et al. second
method).  Document order must match exactly; scores are compared with
``math.isclose`` since the two implementations accumulate partial sums
in different orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..config import ChordConfig, SpriteConfig
from ..corpus.corpus import Corpus
from ..corpus.relevance import Query
from ..core.metadata import TermSlot
from ..core.system import SpriteSystem
from ..ir.centralized import CentralizedSystem
from ..ir.ranking import RankedList
from .engine import Delta, micro_configs


def write_state_fingerprint(system: SpriteSystem) -> Dict[str, object]:
    """Everything the write path can influence, as a comparable value.

    Four parts:

    ``slots``
        Per (indexing peer, term): the postings in publish order, the
        indexed document frequency, and the query cache's latest
        sequence number.
    ``caches``
        Per (indexing peer, term): the query cache's entries ``(keyword
        tuple, query hash, sequence)``, oldest first — what learning
        polls, so a query registered under the wrong tuple shows here.
    ``version_rank``
        The slot keys sorted by slot version.  Versions come from one
        process-global counter, so their *absolute* values differ
        between two separately built systems — but every write path
        applies mutations in the same order, so the *rank order* of
        final slot versions must coincide.
    ``owners``
        Per (owner peer, shared document): index terms in selection
        order, poll cursors, iterations run, the learner's raw
        statistics, and its current rank list.
    """
    slots: Dict[Tuple[int, str], object] = {}
    caches: Dict[Tuple[int, str], tuple] = {}
    versions: List[Tuple[int, Tuple[int, str]]] = []
    for node in system.ring.nodes.values():
        for value in node.store.values():
            if not isinstance(value, TermSlot):
                continue
            key = (node.node_id, value.term)
            slots[key] = (
                tuple(value.entries()),
                value.indexed_document_frequency,
                value.cache.latest_sequence,
            )
            caches[key] = tuple(value.cache)
            versions.append((value.version, key))
    versions.sort()
    owners: Dict[Tuple[int, str], object] = {}
    for node_id, owner in system.owners.items():
        for doc_id, state in owner.shared.items():
            owners[(node_id, doc_id)] = (
                tuple(state.index_terms),
                tuple(sorted(state.poll_cursors.items())),
                state.learning_iterations_run,
                tuple(
                    sorted(
                        (term, (s.max_qscore, s.query_frequency))
                        for term, s in state.learner.stats.items()
                    )
                ),
                tuple((rt.term, rt.score) for rt in state.learner.rank_list()),
            )
    return {
        "slots": slots,
        "caches": caches,
        "version_rank": tuple(key for __, key in versions),
        "owners": owners,
    }


@dataclass(frozen=True)
class RankingMismatch:
    """One query whose rankings diverged between the two sides."""

    query_id: str
    detail: str


@dataclass
class OracleReport:
    """Outcome of one differential comparison."""

    name: str
    queries_compared: int = 0
    mismatches: List[RankingMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = "consistent" if self.ok else f"{len(self.mismatches)} mismatches"
        return f"oracle[{self.name}]: {self.queries_compared} queries, {verdict}"


def _pairs(ranked: RankedList) -> List[Tuple[str, float]]:
    return [(entry.doc_id, entry.score) for entry in ranked]


@dataclass(frozen=True)
class OracleRow:
    """One row of the comparison table (see the module docstring).

    Both systems start from the oracle's base configuration plus
    ``shared``; the *varied* one additionally gets ``delta``."""

    name: str
    #: What the switch is claimed not to change.
    delta: Delta
    flow: str = "learn"
    equal: FrozenSet[str] = frozenset({"rankings"})
    rounds: int = 1
    shared: Delta = field(default_factory=dict)


ORACLE_ROWS: Tuple[OracleRow, ...] = (
    # No route cache: every lookup routes hop by hop.
    OracleRow("perf-paths", {"chord": {"route_cache_size": 0}}),
    # The second round is served from the result caches.
    OracleRow("result-cache", {"sprite": {"result_cache_size": 128}}, rounds=2),
    # SQLite stores only the integer posting columns; every float is
    # recomputed through the expressions the in-RAM store uses, so
    # there is no tolerance to hide behind.
    OracleRow(
        "store-paths",
        {"sprite": {"store_backend": "sqlite"}},
        flow="bulk-churn",
        equal=frozenset({"rankings", "fingerprint"}),
    ),
    OracleRow(
        "store-bloom",
        {"sprite": {"store_bloom": False}},
        flow="bulk-churn",
        equal=frozenset({"rankings", "fingerprint"}),
        shared={"sprite": {"store_backend": "sqlite"}},
    ),
    # Routing selects message paths, not results: ownership is the
    # successor relation over the same seeded membership.
    OracleRow(
        "ring-paths",
        {"chord": {"finger_arity": 8}},
        equal=frozenset({"rankings", "fingerprint"}),
    ),
)


def _describe(delta: Delta) -> str:
    return ", ".join(
        f"{field_name}={value!r}"
        for part in delta.values()
        for field_name, value in part.items()
    )


class DifferentialOracle:
    """Runs the comparison table and the centralized baseline over a
    corpus + query workload."""

    def __init__(
        self,
        corpus: Corpus,
        train: Sequence[Query],
        test: Sequence[Query],
        num_peers: int = 24,
        seed: int = 0,
    ) -> None:
        self.corpus = corpus
        self.train = list(train)
        self.test = list(test)
        self.num_peers = num_peers
        self.seed = seed

    # -- construction helpers ---------------------------------------------

    def configs(self, *deltas: Delta) -> Tuple[SpriteConfig, ChordConfig]:
        """The base configuration with *deltas* applied in order."""
        return micro_configs(self.num_peers, self.seed, *deltas)

    def build(self, *deltas: Delta) -> SpriteSystem:
        sprite, chord = self.configs(*deltas)
        return SpriteSystem(self.corpus, sprite_config=sprite, chord_config=chord)

    def replay(self, system: SpriteSystem, flow: str) -> None:
        """Run the named *flow* on *system* (see the module docstring)."""
        bulk = flow == "bulk-churn"
        if bulk:
            system.bulk_share()
        else:
            system.share_corpus()
        system.register_queries(self.train)
        system.run_learning()
        if bulk:
            docs = list(self.corpus)
            churn_ids = [d.doc_id for d in docs[: max(1, math.ceil(len(docs) / 5))]]
            system.bulk_unshare(churn_ids)
            system.bulk_share([system.corpus.get(doc_id) for doc_id in churn_ids])

    # -- the table runner ----------------------------------------------------

    def check(self, row: OracleRow) -> OracleReport:
        """Run one table row.  Every system built here is closed on the
        way out — a durable one owns a WAL database and a temp dir."""
        report = OracleReport(name=row.name)
        built: List[SpriteSystem] = []
        try:
            built.append(self.build(row.shared))
            built.append(self.build(row.shared, row.delta))
            self._compare(row, *built, report)
        finally:
            for system in built:
                if system.store_runtime is not None:
                    system.store_runtime.close()
        return report

    def _compare(
        self,
        row: OracleRow,
        base: SpriteSystem,
        varied: SpriteSystem,
        report: OracleReport,
    ) -> None:
        what = _describe(row.delta)
        for system in (base, varied):
            self.replay(system, row.flow)
        if "fingerprint" in row.equal:
            before = write_state_fingerprint(base)
            after = write_state_fingerprint(varied)
            for part in ("slots", "caches", "version_rank", "owners"):
                if before[part] != after[part]:
                    report.mismatches.append(
                        RankingMismatch(
                            query_id="<state>",
                            detail=f"write-state {part} diverged with {what}",
                        )
                    )
        for round_no in range(row.rounds):
            for query in self.test:
                expected = _pairs(base.search(query, cache=False))
                actual = _pairs(varied.search(query, cache=False))
                report.queries_compared += 1
                if "rankings" in row.equal and actual != expected:
                    report.mismatches.append(
                        RankingMismatch(
                            query_id=query.query_id,
                            detail=(
                                f"round {round_no}: with {what}: "
                                f"{actual[:3]}... without: {expected[:3]}..."
                            ),
                        )
                    )

    # -- full-index SPRITE vs centralized TF-IDF ------------------------------

    def check_centralized_baseline(self) -> OracleReport:
        """At F = ∞ every document publishes *all* its terms, and with
        the assumed corpus size pinned to the true size the indexed
        document frequency n'_k equals the true n_k, so distributed
        rankings must agree with centralized TF-IDF: identical document
        order, scores equal to float tolerance."""
        report = OracleReport(name="centralized-baseline")
        full = self.build(
            {
                "sprite": {
                    "initial_terms": 10**6,
                    "max_index_terms": 10**6,
                    "assumed_corpus_size": len(self.corpus),
                }
            }
        )
        full.share_corpus()
        centralized = CentralizedSystem(self.corpus, normalization="lee")
        for query in self.test:
            distributed = _pairs(full.search(query, cache=False))
            reference = _pairs(centralized.search(query, top_k=full.config.top_k_answers))
            report.queries_compared += 1
            if [d for d, __ in distributed] != [d for d, __ in reference]:
                report.mismatches.append(
                    RankingMismatch(
                        query_id=query.query_id,
                        detail=(
                            f"doc order differs: distributed="
                            f"{[d for d, __ in distributed][:5]} "
                            f"centralized={[d for d, __ in reference][:5]}"
                        ),
                    )
                )
                continue
            for (doc_id, d_score), (__, c_score) in zip(distributed, reference):
                if not math.isclose(d_score, c_score, rel_tol=1e-9, abs_tol=1e-12):
                    report.mismatches.append(
                        RankingMismatch(
                            query_id=query.query_id,
                            detail=(
                                f"score differs for {doc_id!r}: "
                                f"{d_score!r} vs {c_score!r}"
                            ),
                        )
                    )
                    break
        return report

    def check_all(self) -> Dict[str, OracleReport]:
        """All comparisons, keyed by oracle name."""
        reports = [self.check(row) for row in ORACLE_ROWS]
        reports.append(self.check_centralized_baseline())
        return {r.name: r for r in reports}

