"""Tests for the concurrency workload engine.

A single tiny deployment (module-scoped — capture is the expensive
part) backs every check: equivalence of the replayed grid with the
call-stack path, closed-loop scaling, straggler tail inflation, open
loop arrivals, and run-to-run determinism of whole cells.
"""

from __future__ import annotations

import pytest

from repro.perf.concurrency import (
    ConcurrencyConfig,
    _build_deployment,
    paper_scale_config,
    run_closed_cell,
    run_concurrency_grid,
    run_open_cell,
    smoke_config,
)

TINY = ConcurrencyConfig(
    num_peers=60,
    num_documents=30,
    vocabulary_size=150,
    terms_per_document=8,
    num_ops=150,
    distinct_queries=40,
    num_query_peers=12,
    clients_grid=(1, 8, 32),
    open_loop_rates_per_s=(1000.0, 6000.0),
)


@pytest.fixture(scope="module")
def deployment():
    dep, _capture_s = _build_deployment(TINY)
    return dep


@pytest.fixture(scope="module")
def grid():
    return run_concurrency_grid(TINY)


class TestEquivalence:
    def test_every_cell_checksum_matches_the_synchronous_path(self, grid) -> None:
        """The grid changes *when* ops complete, never *what* they
        return: all cells and the call-stack re-execution agree."""
        assert grid.sync_ranking_checksum  # verify_sync ran
        assert grid.checksums_match
        checksums = {c.ranking_checksum for c in grid.cells}
        assert checksums == {grid.sync_ranking_checksum}

    def test_single_client_completes_in_submission_order(self, deployment) -> None:
        cell = run_closed_cell(TINY, deployment, clients=1, service_time_ms=0.25)
        assert cell.ops == TINY.num_ops
        # One op in flight at a time: no queueing anywhere.
        assert cell.max_queue_depth == 1
        assert cell.mean_wait_ms == 0.0


class TestClosedLoopScaling:
    def test_more_clients_raise_throughput(self, grid) -> None:
        """The headline acceptance gate: closed-loop throughput with the
        full client population beats the single-client baseline."""
        for st in TINY.service_times_ms:
            single = grid.cell(clients=1, service_time_ms=st, stragglers=False)
            many = grid.cell(clients=32, service_time_ms=st, stragglers=False)
            assert many.throughput_ops_per_s > single.throughput_ops_per_s
            assert many.makespan_ms < single.makespan_ms

    def test_contention_raises_latency_with_load(self, grid) -> None:
        st = TINY.service_times_ms[0]
        single = grid.cell(clients=1, service_time_ms=st, stragglers=False)
        many = grid.cell(clients=32, service_time_ms=st, stragglers=False)
        assert many.latency_p99_ms >= single.latency_p99_ms
        assert many.max_queue_depth > single.max_queue_depth

    def test_slower_service_lowers_throughput(self, grid) -> None:
        fast = grid.cell(clients=32, service_time_ms=0.25, stragglers=False)
        slow = grid.cell(clients=32, service_time_ms=1.0, stragglers=False)
        assert slow.throughput_ops_per_s < fast.throughput_ops_per_s


class TestStragglers:
    def test_stragglers_inflate_deep_tail_not_median(self, grid) -> None:
        st = TINY.service_times_ms[0]
        base = grid.cell(clients=32, service_time_ms=st, stragglers=False)
        slow = grid.cell(clients=32, service_time_ms=st, stragglers=True)
        # The deep tail visibly inflates...
        assert slow.latency_p99_9_ms > base.latency_p99_9_ms
        # ...while the median stays in the same regime (< 2x).
        assert slow.latency_p50_ms < 2.0 * base.latency_p50_ms

    def test_straggler_peers_intersect_the_workload(self, deployment) -> None:
        contacted = {
            dst for op in deployment.captured.values() for _k, dst in op.timeline
        }
        assert deployment.slow_peers
        assert set(deployment.slow_peers) <= contacted


class TestOpenLoop:
    def test_higher_arrival_rate_builds_deeper_queues(self, grid) -> None:
        gentle = grid.cell(mode="open", arrival_rate_per_s=1000.0)
        flood = grid.cell(mode="open", arrival_rate_per_s=6000.0)
        assert flood.max_queue_depth >= gentle.max_queue_depth
        assert flood.latency_p99_ms >= gentle.latency_p99_ms

    def test_open_loop_rate_validation(self, deployment) -> None:
        with pytest.raises(ValueError):
            run_open_cell(TINY, deployment, 0.0, 0.25)


class TestDeterminism:
    def test_cells_reproduce_bit_for_bit(self, deployment) -> None:
        a = run_closed_cell(TINY, deployment, clients=8, service_time_ms=0.25)
        b = run_closed_cell(TINY, deployment, clients=8, service_time_ms=0.25)
        assert a.schedule_fingerprint == b.schedule_fingerprint
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_s"), db.pop("wall_s")
        assert da == db

    def test_open_cells_reproduce(self, deployment) -> None:
        a = run_open_cell(TINY, deployment, 1000.0, 0.25)
        b = run_open_cell(TINY, deployment, 1000.0, 0.25)
        assert a.schedule_fingerprint == b.schedule_fingerprint

    def test_distinct_cells_have_distinct_fingerprints(self, grid) -> None:
        prints = [c.schedule_fingerprint for c in grid.cells]
        assert len(set(prints)) == len(prints)


class TestResultShape:
    def test_grid_covers_all_tracked_cells(self, grid) -> None:
        closed = [c for c in grid.cells if c.mode == "closed" and not c.stragglers]
        straggler = [c for c in grid.cells if c.stragglers]
        open_cells = [c for c in grid.cells if c.mode == "open"]
        assert len(closed) == len(TINY.clients_grid) * len(TINY.service_times_ms)
        assert len(straggler) == len(TINY.clients_grid)
        assert len(open_cells) == len(TINY.open_loop_rates_per_s)

    def test_to_dict_is_json_friendly(self, grid) -> None:
        import json

        payload = json.dumps(grid.to_dict())
        assert "checksums_match" in payload

    def test_cell_selector_rejects_ambiguity(self, grid) -> None:
        with pytest.raises(KeyError):
            grid.cell(mode="closed")

    def test_named_configs_have_tracked_shapes(self) -> None:
        paper = paper_scale_config()
        smoke = smoke_config()
        assert paper.num_peers > smoke.num_peers
        assert paper.clients_grid == smoke.clients_grid == (1, 16, 64)
        assert smoke.replaced(num_ops=7).num_ops == 7

