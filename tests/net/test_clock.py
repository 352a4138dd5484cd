"""Tests for the simulated network clock."""

from __future__ import annotations

import pytest

from repro.net import SimulatedClock


class TestClock:
    def test_starts_at_zero(self) -> None:
        assert SimulatedClock().now == 0.0

    def test_custom_start(self) -> None:
        assert SimulatedClock(start_ms=12.5).now == 12.5

    def test_advance_accumulates(self) -> None:
        clock = SimulatedClock()
        clock.advance(10.0)
        assert clock.advance(2.5) == 12.5
        assert clock.now == 12.5

    def test_zero_advance_allowed(self) -> None:
        clock = SimulatedClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_cannot_run_backwards(self) -> None:
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)

    def test_negative_start_rejected(self) -> None:
        with pytest.raises(ValueError):
            SimulatedClock(start_ms=-1.0)
