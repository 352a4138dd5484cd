"""The scenario engine: event application, quiescence, determinism."""

from __future__ import annotations

import random

import pytest

from repro.corpus import Document
from repro.net import LossyTransport
from repro.sim import Scenario, SimEvent, build_simulation, random_scenario
from repro.sim.engine import revise_document


class TestEventApplication:
    def test_publish_shares_documents_incrementally(self) -> None:
        engine = build_simulation(seed=1)
        assert engine.system.total_published_terms() == 0
        assert engine.apply(SimEvent("publish", count=5))
        assert len(engine.system._doc_owner) == 5
        assert engine.system.total_published_terms() > 0

    def test_publish_exhausts_then_skips(self) -> None:
        engine = build_simulation(seed=1)
        assert engine.apply(SimEvent("publish", count=60))
        assert len(engine.system._doc_owner) == 60
        assert not engine.apply(SimEvent("publish"))

    def test_join_grows_ring(self) -> None:
        engine = build_simulation(seed=1)
        before = engine.system.ring.num_live
        assert engine.apply(SimEvent("join", name="newcomer"))
        assert engine.system.ring.num_live == before + 1

    def test_crash_sets_dirty_until_clean_maintenance(self) -> None:
        engine = build_simulation(seed=2)
        engine.apply(SimEvent("publish", count=10))
        engine.apply(SimEvent("replicate"))
        assert engine.quiescent
        engine.apply(SimEvent("crash"))
        assert not engine.quiescent
        engine.apply(SimEvent("stabilize"))
        engine.apply(SimEvent("recover"))
        # still dirty: quiescence needs a *clean* maintenance round as proof
        assert not engine.quiescent
        engine.apply(SimEvent("maintain"))
        assert engine.quiescent

    def test_blackout_skipped_on_perfect_transport(self) -> None:
        engine = build_simulation(seed=3)
        assert not engine.apply(SimEvent("blackout", duration_ms=100.0))

    def test_blackout_blocks_quiescence_until_window_ends(self) -> None:
        engine = build_simulation(seed=3, transport=LossyTransport(seed=3))
        engine.apply(SimEvent("publish", count=5))
        assert engine.quiescent
        assert engine.apply(SimEvent("blackout", duration_ms=200.0))
        assert not engine.quiescent
        # ticks advance the clock 10 ms per applied event
        for __ in range(25):
            engine.apply(SimEvent("stabilize"))
        assert engine.clock.now >= engine._blackout_until
        assert engine.quiescent

    def test_query_event_runs_workload(self) -> None:
        engine = build_simulation(seed=4)
        engine.apply(SimEvent("publish", count=60))
        assert engine.apply(SimEvent("query", count=3))

    def test_learn_event_requires_owners(self) -> None:
        engine = build_simulation(seed=5)
        assert not engine.apply(SimEvent("learn"))  # nothing shared yet
        engine.apply(SimEvent("publish", count=5))
        assert engine.apply(SimEvent("learn"))

    def test_clock_advances_per_applied_event(self) -> None:
        engine = build_simulation(seed=6, tick_ms=10.0)
        t0 = engine.clock.now
        engine.apply(SimEvent("stabilize"))
        engine.apply(SimEvent("stabilize"))
        assert engine.clock.now == t0 + 20.0


class TestRun:
    def test_report_counts_and_ok(self) -> None:
        engine = build_simulation(seed=7)
        kinds = ("publish", "replicate", "crash", "stabilize", "recover", "maintain")
        s = Scenario(7, tuple(SimEvent(kind) for kind in kinds))
        report = engine.run(s)
        assert report.ok, [str(v) for __, __, v in report.violations]
        assert report.events_applied == 6
        assert report.checks_run == 6
        assert report.final_quiescent
        assert report.applied["crash"] == 1

    def test_random_scenarios_hold_invariants(self) -> None:
        for seed in (0, 1):
            engine = build_simulation(seed=seed)
            report = engine.run(random_scenario(seed=seed, num_events=60))
            assert report.ok, [str(v) for __, __, v in report.violations]
            assert report.final_quiescent

    def test_summary_lines_mention_violations(self) -> None:
        engine = build_simulation(seed=8)
        report = engine.run(Scenario(8, (SimEvent("publish"), SimEvent("maintain"))))
        assert any("all invariants held" in line for line in report.summary_lines())


class TestDeterminism:
    def test_same_seed_same_outcome(self) -> None:
        s = random_scenario(seed=9, num_events=50)
        reports = []
        for __ in range(2):
            engine = build_simulation(seed=9)
            reports.append(engine.run(s))
        a, b = reports
        assert a.applied == b.applied
        assert a.skipped == b.skipped
        assert [(i, e, str(v)) for i, e, v in a.violations] == [
            (i, e, str(v)) for i, e, v in b.violations
        ]


class TestReviseDocument:
    """The edited revision a ``turnover`` event re-shares."""

    def _doc(self) -> Document:
        return Document("doc", "alpha beta gamma delta " * 10, title="t")

    def test_same_id_new_text(self) -> None:
        doc = self._doc()
        revised = revise_document(doc, random.Random(1))
        assert revised.doc_id == doc.doc_id
        assert revised.title == doc.title
        assert revised.text != doc.text
        # edits stay inside the document's own vocabulary
        assert set(revised.text.split()) <= set(doc.text.split())

    def test_deterministic_for_a_seed(self) -> None:
        doc = self._doc()
        first = revise_document(doc, random.Random(3))
        second = revise_document(doc, random.Random(3))
        assert first.text == second.text

    def test_empty_document_passes_through(self) -> None:
        revised = revise_document(Document("e", ""), random.Random(0))
        assert revised.doc_id == "e"
        assert revised.text == ""

    def test_edit_fraction_validated(self) -> None:
        with pytest.raises(ValueError):
            revise_document(self._doc(), random.Random(0), edit_fraction=0.0)
        with pytest.raises(ValueError):
            revise_document(self._doc(), random.Random(0), edit_fraction=1.5)
