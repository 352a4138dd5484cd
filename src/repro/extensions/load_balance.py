"""Load balancing for hot indexed terms (paper Section 7, second
discussion).

A term appearing in many documents makes its indexing peer a maintenance
hotspot, yet contributes little to similarity (high document frequency →
small IDF).  The remedy: "advise the document owner peers that the term
has a high document frequency.  The document owner peers can then
discard the term and pick an analogously important term to index."
→ :class:`HotTermAdvisor`.

(Hot *query* terms — the busiest peer's share of SEARCH_TERM requests —
are measured in EXPERIMENTS.md, "Per-peer query load"; no remedy for
them lives here.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.metadata import TermSlot
from ..core.system import SpriteSystem
from ..dht.messages import MessageKind, message
from ..exceptions import NodeFailedError


@dataclass(frozen=True)
class HotTermAdvice:
    """One piece of advice sent to owners: a term whose indexed document
    frequency exceeded the hotness threshold."""

    term: str
    indexed_document_frequency: int


class HotTermAdvisor:
    """Scenario (a): detect maintenance-hot terms and have owners
    replace them with analogously important ones.

    Parameters
    ----------
    system:
        Any distributed retrieval system built on the shared base.
    df_threshold:
        Indexed document frequency above which a term is advised away.
    """

    def __init__(self, system: SpriteSystem, df_threshold: int) -> None:
        if df_threshold < 1:
            raise ValueError("df_threshold must be >= 1")
        self.system = system
        self.df_threshold = df_threshold

    def find_hot_terms(self) -> List[HotTermAdvice]:
        """Scan every term slot in the ring for over-threshold terms."""
        advice: List[HotTermAdvice] = []
        seen = set()
        for node_id in self.system.ring.live_ids:
            node = self.system.ring.node(node_id)
            for slot in node.store.values():
                if not isinstance(slot, TermSlot) or slot.term in seen:
                    continue
                seen.add(slot.term)
                df = slot.indexed_document_frequency
                if df > self.df_threshold:
                    advice.append(HotTermAdvice(slot.term, df))
        advice.sort(key=lambda a: (-a.indexed_document_frequency, a.term))
        return advice

    def apply_advice(self, advice: HotTermAdvice) -> int:
        """Advise every owner indexing *advice.term*: drop it and index
        the next most important unindexed term of the document instead.
        Returns the number of documents that switched terms.

        Each advised document costs exactly one message ("The overhead is
        very small since it only requires one communication"), and the
        advice takes effect only once it is delivered: a document whose
        message is lost keeps the term.
        """
        ring = self.system.ring
        hot_peer = ring.successor_of(self.system.protocol.term_hash(advice.term))
        switched = 0
        for owner in self.system.owners.values():
            if not ring.is_live(owner.node_id):
                continue  # a crashed owner's documents are offline
            for doc_id in list(owner.shared):
                state = owner.shared[doc_id]
                if advice.term not in state.index_terms:
                    continue
                try:
                    ring.send(message(MessageKind.ADVISE_HOT_TERM, hot_peer, owner.node_id))
                except NodeFailedError:
                    continue
                replacement = self._replacement_for(state, advice.term)
                owner._unpublish([(state, [advice.term])])
                if replacement is not None:
                    owner._publish([(state, [replacement])])
                switched += 1
        return switched

    @staticmethod
    def _replacement_for(state, hot_term: str) -> Optional[str]:
        """The document's best term not already indexed: highest learned
        score first, then highest raw frequency."""
        indexed = set(state.index_terms)
        ranked = [
            rt.term
            for rt in state.learner.rank_list()
            if rt.term not in indexed and rt.term != hot_term and rt.score > 0
        ]
        if ranked:
            return ranked[0]
        for term in state.document.top_terms(state.document.unique_terms):
            if term not in indexed and term != hot_term:
                return term
        return None

    def rebalance(self) -> Tuple[int, int]:
        """Full pass: find hot terms, apply all advice.  Returns
        (number of hot terms, number of document term switches)."""
        hot = self.find_hot_terms()
        switches = sum(self.apply_advice(a) for a in hot)
        return len(hot), switches
