"""The scenario DSL: validation, generation."""

from __future__ import annotations

import pytest

from repro.sim import EVENT_KINDS, HEAL_SEQUENCE, SimEvent, random_scenario


class TestSimEvent:
    def test_rejects_unknown_kind(self) -> None:
        with pytest.raises(ValueError):
            SimEvent(kind="meteor_strike")

    def test_rejects_nonpositive_count(self) -> None:
        with pytest.raises(ValueError):
            SimEvent(kind="publish", count=0)

    def test_rejects_negative_duration(self) -> None:
        with pytest.raises(ValueError):
            SimEvent(kind="blackout", duration_ms=-1.0)


class TestRandomScenario:
    def test_exact_event_count(self) -> None:
        for n in (10, 57, 200):
            assert len(random_scenario(seed=3, num_events=n)) == n

    def test_deterministic_for_a_seed(self) -> None:
        assert random_scenario(seed=5, num_events=80) == random_scenario(
            seed=5, num_events=80
        )

    def test_different_seeds_differ(self) -> None:
        a = random_scenario(seed=1, num_events=80)
        b = random_scenario(seed=2, num_events=80)
        assert a.events != b.events

    def test_only_known_kinds(self) -> None:
        s = random_scenario(seed=9, num_events=150)
        assert {e.kind for e in s} <= set(EVENT_KINDS)

    def test_starts_with_publish_burst(self) -> None:
        s = random_scenario(seed=4, num_events=100)
        assert s.events[0].kind == "publish"

    def test_ends_with_heal_suffix(self) -> None:
        s = random_scenario(seed=4, num_events=100)
        tail = [e.kind for e in s.events[-len(HEAL_SEQUENCE) :]]
        assert tail == list(HEAL_SEQUENCE)

    def test_too_few_events_rejected(self) -> None:
        with pytest.raises(ValueError):
            random_scenario(seed=0, num_events=3)
