"""Quality-under-stress readouts: SPRITE vs the centralized oracle.

The invariant catalogue answers "is the state consistent?"; this module
answers the question the paper actually cares about — *how good are the
answers* — while (and after) a scenario abuses the system.  A
:class:`QualityProbe` replays the workload query pool against both the
live distributed system and a :class:`~repro.ir.centralized.CentralizedSystem`
rebuilt over the **currently shared** documents (turnover scenarios edit
the corpus mid-stream, so the reference must be rebuilt per probe), and
scores each query three ways against the oracle's top-k:

* **precision@k** — fraction of the oracle's top-k the system returned;
* **recall@k** — same hits over the oracle's (possibly < k) answer set;
* **NDCG@k** — rank-weighted agreement with the oracle's *order*
  (:func:`~repro.evaluation.metrics.ndcg_against_reference`).

Queries the damaged system cannot serve at all (``NodeFailedError``)
count as degraded and score zero — a probe taken mid-damage is *meant*
to read low; the paired probe after the heal suffix is the recovery
claim.  Probes run with ``cache=False`` so they never register queries
(no learning fuel, no query-cache mutation); they still travel the
result-cache probe path, exactly like real traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.system import SpriteSystem
from ..corpus.corpus import Corpus
from ..corpus.relevance import Query
from ..evaluation.metrics import ndcg_against_reference
from ..exceptions import NodeFailedError
from ..ir.centralized import CentralizedSystem


@dataclass(frozen=True)
class QualityReadout:
    """One probe's aggregate quality numbers."""

    label: str
    queries: int
    degraded: int
    mean_precision: float
    mean_recall: float
    mean_ndcg: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "queries": self.queries,
            "degraded": self.degraded,
            "precision": round(self.mean_precision, 4),
            "recall": round(self.mean_recall, 4),
            "ndcg": round(self.mean_ndcg, 4),
        }

    def summary(self) -> str:
        return (
            f"quality[{self.label}]: precision {self.mean_precision:.3f} · "
            f"recall {self.mean_recall:.3f} · ndcg {self.mean_ndcg:.3f} "
            f"({self.queries} queries, {self.degraded} degraded)"
        )


class QualityProbe:
    """Measures a live system's retrieval quality against the oracle.

    Parameters
    ----------
    system:
        The system under stress.  Only its currently shared documents
        participate — unshared (or turned-over-and-not-yet-reshared)
        documents are invisible to both sides.
    queries:
        The workload pool to score (every query, every probe).
    top_k:
        The cutoff; defaults to the system's configured answer count.
    """

    def __init__(
        self,
        system: SpriteSystem,
        queries: Sequence[Query],
        top_k: int | None = None,
    ) -> None:
        self.system = system
        self.queries = list(queries)
        self.top_k = (
            top_k
            if top_k is not None
            else int(getattr(system.config, "top_k_answers", 10))
        )

    def _reference(self) -> CentralizedSystem | None:
        shared_ids = sorted(self.system._doc_owner)
        if not shared_ids:
            return None
        corpus = self.system.corpus
        sub_corpus = Corpus(
            [corpus.get(doc_id) for doc_id in shared_ids],
            analyzer=corpus.analyzer,
        )
        return CentralizedSystem(sub_corpus, normalization="lee")

    def measure(self, label: str) -> QualityReadout:
        """Score every pool query now, tagged with *label* ("during" /
        "after" the stress window)."""
        reference = self._reference()
        k = self.top_k
        precisions: List[float] = []
        recalls: List[float] = []
        ndcgs: List[float] = []
        degraded = 0
        for query in self.queries:
            oracle_ids = (
                reference.search(query, top_k=k).top_ids(k)
                if reference is not None
                else []
            )
            if not oracle_ids:
                # The oracle itself finds nothing — the query cannot
                # distinguish systems; score it as zero information.
                precisions.append(0.0)
                recalls.append(0.0)
                ndcgs.append(0.0)
                continue
            try:
                ranked = self.system.search(query, top_k=k, cache=False)
            except NodeFailedError:
                degraded += 1
                precisions.append(0.0)
                recalls.append(0.0)
                ndcgs.append(0.0)
                continue
            top = ranked.top_ids(k)
            hits = sum(1 for doc_id in top if doc_id in set(oracle_ids))
            precisions.append(hits / k)
            recalls.append(hits / len(oracle_ids))
            ndcgs.append(ndcg_against_reference(top, oracle_ids, k))
        count = len(self.queries)
        return QualityReadout(
            label=label,
            queries=count,
            degraded=degraded,
            mean_precision=sum(precisions) / count if count else 0.0,
            mean_recall=sum(recalls) / count if count else 0.0,
            mean_ndcg=sum(ndcgs) / count if count else 0.0,
        )
