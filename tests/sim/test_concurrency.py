"""Tests for the runtime stress scenarios (thundering herd, slow-peer
stall) and their invariant catalogue."""

from __future__ import annotations

from .runtime_scenarios import (
    ConcurrencyScenarioReport,
    run_runtime_scenarios,
    slow_peer_stall,
    thundering_herd,
)


class TestThunderingHerd:
    def test_default_herd_upholds_every_invariant(self) -> None:
        report = thundering_herd()
        assert report.ok, report.violations
        assert report.ops == 200

    def test_backpressure_engages_under_overload(self) -> None:
        report = thundering_herd(num_clients=100, num_targets=1, queue_depth=4)
        assert report.ok, report.violations
        assert report.queue_drops > 0
        assert report.failed > 0  # some ops saw QUEUE_DROP receipts

    def test_no_drops_when_capacity_suffices(self) -> None:
        """A small herd against deep queues: the backpressure invariant
        is conditional, so a drop-free run is still clean."""
        report = thundering_herd(
            num_clients=4, num_targets=4, queue_depth=64, timeout_ms=1000.0
        )
        assert report.ok, report.violations
        assert report.queue_drops == 0
        assert report.served == 4

    def test_queue_bound_is_hard(self) -> None:
        report = thundering_herd(num_clients=300, num_targets=3, queue_depth=5)
        assert report.ok, report.violations
        assert report.max_queue_depth <= 5

    def test_seed_changes_fingerprint_not_verdict(self) -> None:
        a = thundering_herd(seed=1)
        b = thundering_herd(seed=2)
        assert a.ok and b.ok
        assert a.fingerprint != b.fingerprint


class TestSlowPeerStall:
    def test_default_stall_upholds_every_invariant(self) -> None:
        report = slow_peer_stall()
        assert report.ok, report.violations
        assert report.ops == 120

    def test_stall_is_visible_but_localized(self) -> None:
        report = slow_peer_stall(slow_factor=80.0)
        assert report.ok, report.violations
        # The slow peer forces real extra work: retries/timeouts or at
        # least a much longer makespan than the fast path alone.
        assert report.makespan_ms > 0

    def test_summary_readout(self) -> None:
        report = slow_peer_stall()
        text = report.summary()
        assert "slow-peer-stall" in text
        assert "ok" in text

    def test_violations_flip_ok(self) -> None:
        report = ConcurrencyScenarioReport(name="x")
        assert report.ok
        report.violations.append("boom")
        assert not report.ok
        assert "1 violations" in report.summary()


class TestRunAll:
    def test_runs_both_scenarios(self) -> None:
        reports = run_runtime_scenarios(seed=3)
        assert set(reports) == {"thundering-herd", "slow-peer-stall"}
        assert all(r.ok for r in reports.values()), {
            name: r.violations for name, r in reports.items()
        }
