"""The adversarial workload catalogue: structure, determinism, runs."""

from __future__ import annotations

import pytest

from repro.sim import (
    CATALOGUE,
    EVENT_KINDS,
    build_catalogue_engine,
    report_record,
    run_catalogue,
    run_catalogue_entry,
)

REQUIRED = {
    "flash_crowd",
    "hot_term_storm",
    "regional_failure",
    "heterogeneous",
    "free_riders",
    "flaky_responders",
    "corpus_turnover",
}


class TestCatalogueStructure:
    def test_the_seven_scenarios_are_registered(self) -> None:
        assert set(CATALOGUE) == REQUIRED

    def test_entries_are_well_formed(self) -> None:
        for name, entry in CATALOGUE.items():
            assert entry.name == name
            assert entry.description
            assert entry.invariants, name
            assert entry.transport in ("perfect", "lossy")
            scenario = entry.build(3)
            assert scenario.seed == 3
            assert all(e.kind in EVENT_KINDS for e in scenario.events)

    def test_every_scenario_probes_before_during_and_after(self) -> None:
        for name, entry in CATALOGUE.items():
            labels = [
                e.name for e in entry.build(0).events if e.kind == "measure"
            ]
            for required in ("before", "during", "after"):
                assert required in labels, f"{name} lacks measure {required!r}"
            # The after-probe must follow the heal suffix: it is the
            # recovery claim, so nothing may run after it.
            assert labels[-1] == "after"
            assert entry.build(0).events[-1].kind == "measure"

    def test_documented_invariants_exist_in_the_checker(self) -> None:
        from repro.sim import InvariantChecker

        known = {name for name, __ in InvariantChecker.CATALOGUE}
        for entry in CATALOGUE.values():
            assert set(entry.invariants) <= known, entry.name

    def test_behavior_specs_needing_faults_ride_lossy_transports(self) -> None:
        for name, entry in CATALOGUE.items():
            for event in entry.build(0).events:
                if event.kind == "behave" and not event.name.startswith(
                    "freeride"
                ):
                    assert entry.transport == "lossy", name


class TestDeterminism:
    def test_same_seed_same_event_stream(self) -> None:
        for entry in CATALOGUE.values():
            assert entry.build(9) == entry.build(9)

    def test_same_seed_same_report(self) -> None:
        first = report_record(
            run_catalogue_entry("corpus_turnover", seed=2, num_peers=16)
        )
        second = report_record(
            run_catalogue_entry("corpus_turnover", seed=2, num_peers=16)
        )
        assert first == second

    def test_lossy_entry_is_deterministic_too(self) -> None:
        first = report_record(
            run_catalogue_entry("flaky_responders", seed=2, num_peers=16)
        )
        second = report_record(
            run_catalogue_entry("flaky_responders", seed=2, num_peers=16)
        )
        assert first == second


class TestRuns:
    @pytest.mark.parametrize("name", sorted(REQUIRED))
    def test_runs_clean_and_heals(self, name: str) -> None:
        report = run_catalogue_entry(name, seed=0, num_peers=16)
        assert report.ok, [str(v) for __, __, v in report.violations]
        assert report.final_quiescent
        assert report.events_skipped == 0
        labels = [r.label for r in report.quality]
        assert labels.count("after") == 1

    def test_storm_entries_record_observations(self) -> None:
        report = run_catalogue_entry("hot_term_storm", seed=0, num_peers=16)
        assert report.storms
        assert all(o.rcache_enabled for o in report.storms)
        assert sum(o.cache_hits for o in report.storms) > 0

    def test_regional_failure_dents_quality_then_recovers(self) -> None:
        report = run_catalogue_entry("regional_failure", seed=1, num_peers=16)
        by_label = {r.label: r for r in report.quality}
        assert by_label["during"].mean_precision <= by_label["before"].mean_precision
        assert by_label["after"].mean_precision >= 0.9 * by_label["before"].mean_precision

    def test_run_catalogue_selects_and_defaults(self) -> None:
        reports = run_catalogue(["flash_crowd"], seed=0, num_peers=16)
        assert list(reports) == ["flash_crowd"]
        with pytest.raises(KeyError):
            run_catalogue_entry("unknown", seed=0)

    def test_engine_configuration_follows_the_entry(self) -> None:
        cached = build_catalogue_engine(CATALOGUE["hot_term_storm"], seed=0)
        assert cached.system.config.result_cache_size > 0
        lossy = build_catalogue_engine(CATALOGUE["flaky_responders"], seed=0)
        assert lossy.system.ring.transport.active


class TestReportRecord:
    def test_record_shape(self) -> None:
        record = report_record(
            run_catalogue_entry("flash_crowd", seed=0, num_peers=16)
        )
        assert set(record) >= {
            "events",
            "skipped",
            "violations",
            "degraded",
            "final_quiescent",
            "quality",
            "storms",
        }
        assert set(record["quality"]) == {"before", "during", "after"}
        storms = record["storms"]
        assert storms["requests"] == storms["cache_hits"] + storms["cache_misses"]
