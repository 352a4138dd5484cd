"""The routing benchmark (``repro perf``, DESIGN.md §8): spec
parsing, grid determinism, worker-count invariance, and the cross-ring
checksum oracle."""

from __future__ import annotations

import pytest

from repro.dht import ring_label
from repro.exceptions import ConfigurationError
from repro.perf.route import (
    RouteWorkloadConfig,
    parse_ring_specs,
    route_smoke_config,
    run_route_cell,
    run_route_workload,
)


def tiny_config(**kwargs) -> RouteWorkloadConfig:
    """A sub-second grid for unit tests (smaller than the CI smoke)."""
    base = route_smoke_config().replaced(
        peers_grid=(200,),
        num_documents=30,
        vocabulary_size=200,
        num_queries=200,
        distinct_queries=40,
        num_query_peers=8,
        churn_every=50,
    )
    return base.replaced(**kwargs) if kwargs else base


class TestParseRingSpecs:
    def test_parses_grid(self) -> None:
        assert parse_ring_specs("chord,record:4,record:8") == (2, 4, 8)

    def test_record_defaults_to_arity_two(self) -> None:
        assert parse_ring_specs("record") == (2,)
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_ring_specs("chord,record:2")

    def test_whitespace_tolerated(self) -> None:
        assert parse_ring_specs(" chord , record:8 ") == (2, 8)

    @pytest.mark.parametrize(
        "text",
        ("", "chord,,record", "pastry", "chord:4", "record:x", "record:1",
         "chord,chord", "record:8,record:8"),
    )
    def test_rejects_malformed_specs(self, text: str) -> None:
        with pytest.raises(ConfigurationError):
            parse_ring_specs(text)

    def test_ring_label_round_trip(self) -> None:
        for text in ("chord", "record:8"):
            (arity,) = parse_ring_specs(text)
            assert ring_label(arity) == text
        assert ring_label(2) == "chord"


class TestRouteCell:
    def test_cell_is_deterministic(self) -> None:
        cfg = tiny_config()
        a = run_route_cell(cfg, 200, 8)
        b = run_route_cell(cfg, 200, 8)
        a.build_s = b.build_s = a.query_s = b.query_s = 0.0
        assert a == b

    def test_cell_measures_routing(self) -> None:
        cell = run_route_cell(tiny_config(), 200, 2)
        assert cell.lookups > 0
        assert cell.mean_hops > 1.0
        assert cell.p99_hops >= cell.mean_hops
        assert cell.lookup_messages > cell.lookups  # multi-hop lookups
        assert cell.build_entries > 0
        assert cell.churn_entries > 0
        assert cell.churn_events == 3  # 200 queries / churn_every 50 - 1


class TestRouteWorkload:
    def test_grid_matches_and_reduces_hops(self) -> None:
        result = run_route_workload(tiny_config())
        assert result.checksums_match
        assert result.rings == ["chord", "record:8"]
        assert result.hop_reduction(200, "record:8") > 0.10
        chord = result.cell(200, "chord")
        record = result.cell(200, "record:8")
        assert record["finger_table_size"] > chord["finger_table_size"]
        assert record["lookup_messages"] < chord["lookup_messages"]

    def test_worker_count_does_not_change_results(self) -> None:
        serial = run_route_workload(tiny_config(workers=1))
        pooled = run_route_workload(tiny_config(workers=2))
        strip = lambda cells: [
            {k: v for k, v in c.items() if k not in ("build_s", "query_s")}
            for c in cells
        ]
        assert strip(serial.cells) == strip(pooled.cells)
        assert pooled.workers == 2

    def test_summary_table_shape(self) -> None:
        result = run_route_workload(tiny_config())
        table = result.summary_table()
        assert "hops_mean" in table and "churn_entries" in table
        assert "cross-ring ranking checksums: MATCH" in table
        assert table.count("\n") == len(result.cells) + 1  # header + verdict

    def test_cell_lookup_raises_on_unknown(self) -> None:
        result = run_route_workload(tiny_config())
        with pytest.raises(KeyError):
            result.cell(200, "record:32")

    def test_replaced_coerces_grids_to_tuples(self) -> None:
        cfg = tiny_config().replaced(peers_grid=[100], ring_specs=["chord"])
        assert cfg.peers_grid == (100,)
        assert cfg.ring_specs == ("chord",)

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"peers_grid": ()},
            {"ring_specs": ()},
            {"workers": 0},
            {"ring_specs": ("chord", "chord")},
            {"ring_specs": ("chord,record:8", "record:8")},
            {"peers_grid": (200, 200)},
        ),
    )
    def test_workload_validation(self, kwargs) -> None:
        with pytest.raises(ConfigurationError):
            run_route_workload(tiny_config(**kwargs))
