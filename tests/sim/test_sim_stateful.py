"""Stateful property testing of the whole SPRITE deployment.

A hypothesis rule-based machine drives the scenario engine through
arbitrary interleavings of churn, faults, workload, and repair, checking
the full invariant catalogue after every step.  When an interleaving
breaks an invariant, hypothesis shrinks it to a minimal schedule — the
mechanism that produced the regression scenarios in
``test_regressions.py``.

The corpus is the six hand-written tiny documents (synthetic corpus
generation per example would dominate the runtime).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.config import ChordConfig, SpriteConfig
from repro.core.system import SpriteSystem
from repro.corpus import Corpus, Document, Query
from repro.sim import ScenarioEngine, SimEvent

from ..conftest import TINY_DOCS


def _tiny_system(seed: int) -> SpriteSystem:
    corpus = Corpus(
        Document(doc_id=doc_id, text=text) for doc_id, text in TINY_DOCS.items()
    )
    return SpriteSystem(
        corpus,
        sprite_config=SpriteConfig(
            initial_terms=3,
            terms_per_iteration=2,
            learning_iterations=1,
            max_index_terms=6,
            query_cache_size=50,
            assumed_corpus_size=100,
            top_k_answers=5,
        ),
        chord_config=ChordConfig(
            num_peers=10, id_bits=16, successor_list_size=3, seed=seed
        ),
    )


class SpriteMachine(RuleBasedStateMachine):
    """Random event interleavings with continuous invariant checking."""

    def __init__(self) -> None:
        super().__init__()
        self.engine: ScenarioEngine = None  # type: ignore[assignment]

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def setup(self, seed: int) -> None:
        system = _tiny_system(seed)
        analyzer = system.corpus.analyzer
        queries = [
            Query("sq1", tuple(analyzer.analyze_query("chord overlay routing"))),
            Query("sq2", tuple(analyzer.analyze_query("retrieval ranking index"))),
            Query("sq3", tuple(analyzer.analyze_query("replication failure churn"))),
        ]
        self.engine = ScenarioEngine(system, queries=queries, seed=seed)

    # -- actions ------------------------------------------------------------

    @rule(count=st.integers(min_value=1, max_value=3))
    def publish(self, count: int) -> None:
        self.engine.apply(SimEvent("publish", count=count))

    @rule(name=st.integers(min_value=0, max_value=10**6))
    def join(self, name: int) -> None:
        self.engine.apply(SimEvent("join", name=f"sm-{name}"))

    @rule()
    @precondition(lambda self: self.engine and self.engine.system.ring.num_live > 3)
    def leave(self) -> None:
        self.engine.apply(SimEvent("leave"))

    @rule()
    @precondition(lambda self: self.engine and self.engine.system.ring.num_live > 3)
    def crash(self) -> None:
        self.engine.apply(SimEvent("crash"))

    @rule()
    def query(self) -> None:
        self.engine.apply(SimEvent("query"))

    @rule()
    @precondition(lambda self: self.engine and self.engine.system.owners)
    def learn(self) -> None:
        self.engine.apply(SimEvent("learn"))

    @rule()
    def stabilize(self) -> None:
        self.engine.apply(SimEvent("stabilize"))

    @rule()
    def replicate(self) -> None:
        self.engine.apply(SimEvent("replicate"))

    @rule()
    def recover(self) -> None:
        self.engine.apply(SimEvent("recover"))

    @rule()
    def maintain(self) -> None:
        self.engine.apply(SimEvent("maintain"))

    # -- invariants -----------------------------------------------------------

    @invariant()
    def catalogue_holds(self) -> None:
        if self.engine is None:
            return
        report = self.engine.check_now()
        assert not report.violations, "; ".join(str(v) for v in report.violations)


SpriteMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
TestSpriteStateful = SpriteMachine.TestCase
