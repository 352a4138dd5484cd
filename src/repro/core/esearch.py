"""The basic eSearch baseline (Tang & Dwarkadas, NSDI'04; paper §2, §6).

"The basic eSearch system indexes a fixed number of most frequent terms
in a document.  It is the best distributed search system currently
known.  The comparison against eSearch demonstrates the gain that can be
derived from adaptivity/learning."

:class:`ESearchSystem` shares all machinery with SPRITE — the same ring,
protocol, weighting (assumed N, indexed document frequency), and
similarity — and differs *only* in term selection: a document publishes
its top-k most frequent terms once and never tunes them.  (Full eSearch
also replicates complete term lists at indexing peers and performs term
expansion; the paper compares against the basic scheme and notes those
features are orthogonal.)
"""

from __future__ import annotations

from typing import List, Optional

from ..config import ChordConfig, ESearchConfig, SpriteConfig
from ..corpus.corpus import Corpus
from ..dht.ring import ChordRing
from .system import DistributedSystem


class ESearchSystem(DistributedSystem):
    """Static top-k-frequent-terms indexing over the DHT."""

    def __init__(
        self,
        corpus: Corpus,
        esearch_config: ESearchConfig | None = None,
        chord_config: ChordConfig | None = None,
        ring: ChordRing | None = None,
        transport=None,
    ) -> None:
        self.esearch_config = (
            esearch_config if esearch_config is not None else ESearchConfig()
        )
        # Reuse the distributed base with an equivalent SpriteConfig:
        # the static scheme is SPRITE with zero learning iterations and
        # an initial selection of k terms.
        base = SpriteConfig(
            initial_terms=self.esearch_config.index_terms,
            terms_per_iteration=0,
            learning_iterations=0,
            max_index_terms=self.esearch_config.index_terms,
            assumed_corpus_size=self.esearch_config.assumed_corpus_size,
            top_k_answers=self.esearch_config.top_k_answers,
        )
        super().__init__(
            corpus,
            sprite_config=base,
            chord_config=chord_config,
            ring=ring,
            transport=transport,
        )

    def _first_terms(self, doc_id: str) -> Optional[List[str]]:
        """Top-k most frequent analyzed terms, selected once, statically."""
        doc = self.corpus.get(doc_id)
        return doc.top_terms(self.esearch_config.index_terms)
