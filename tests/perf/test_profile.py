"""The opt-in profiling layer."""

from __future__ import annotations

from repro.perf import PROFILE, PerfProfile, memory_usage


class TestPerfProfile:
    def test_disabled_by_default_and_resettable(self) -> None:
        profile = PerfProfile()
        assert not profile.enabled
        profile.enable()
        profile.add_time("lookup", 0.25)
        profile.count("hits", 3)
        profile.reset()
        assert profile.total_seconds("lookup") == 0.0
        assert profile.counter("hits") == 0

    def test_add_time_accumulates(self) -> None:
        profile = PerfProfile().enable()
        profile.add_time("lookup", 0.5)
        profile.add_time("lookup", 0.25)
        assert profile.total_seconds("lookup") == 0.75
        assert profile.calls("lookup") == 2

    def test_timer_context_records_only_when_enabled(self) -> None:
        profile = PerfProfile()
        with profile.timer("span"):
            pass
        assert profile.calls("span") == 0
        profile.enable()
        with profile.timer("span"):
            pass
        assert profile.calls("span") == 1
        assert profile.total_seconds("span") >= 0.0

    def test_summary_and_report_shape(self) -> None:
        profile = PerfProfile().enable()
        profile.add_time("lookup", 0.002)
        profile.count("route_cache.hit", 7)
        summary = profile.summary()
        assert summary["timers"]["lookup"]["calls"] == 1
        assert summary["counters"]["route_cache.hit"] == 7
        text = profile.report()
        assert "lookup" in text and "route_cache.hit" in text

    def test_module_singleton_starts_disabled(self) -> None:
        assert isinstance(PROFILE, PerfProfile)
        assert not PROFILE.enabled


class TestMemoryAccounting:
    def test_memory_usage_snapshot_shape(self) -> None:
        snapshot = memory_usage()
        assert set(snapshot) == {"rss_kb", "peak_rss_kb", "allocated_blocks"}
        # Linux/macOS report real numbers; the fallback is all-zero.
        assert snapshot["peak_rss_kb"] >= snapshot["rss_kb"] >= 0
        assert snapshot["allocated_blocks"] >= 0

    def test_gauges_set_max_and_reset(self) -> None:
        profile = PerfProfile().enable()
        profile.gauge("mem.x.rss_kb", 10)
        profile.gauge("mem.x.rss_kb", 4)  # gauge overwrites
        profile.max_gauge("mem.peak_rss_kb", 7)
        profile.max_gauge("mem.peak_rss_kb", 3)  # max keeps the high-water
        assert profile.gauge_value("mem.x.rss_kb") == 4
        assert profile.gauge_value("mem.peak_rss_kb") == 7
        assert profile.gauge_value("absent", default=-1.0) == -1.0
        profile.reset()
        assert profile.gauge_value("mem.peak_rss_kb") == 0.0

    def test_gauges_ignored_while_disabled(self) -> None:
        profile = PerfProfile()
        profile.gauge("g", 5)
        profile.max_gauge("m", 5)
        assert profile.gauge_value("g") == 0.0
        assert profile.gauge_value("m") == 0.0

    def test_record_memory_writes_gauges_only_when_enabled(self) -> None:
        profile = PerfProfile()
        snapshot = profile.record_memory("phase")
        assert set(snapshot) == {"rss_kb", "peak_rss_kb", "allocated_blocks"}
        assert profile.gauge_value("mem.phase.rss_kb") == 0.0
        profile.enable()
        snapshot = profile.record_memory("phase")
        assert profile.gauge_value("mem.phase.rss_kb") == snapshot["rss_kb"]
        assert (
            profile.gauge_value("mem.peak_rss_kb") == snapshot["peak_rss_kb"]
        )

    def test_summary_and_report_include_gauges(self) -> None:
        profile = PerfProfile().enable()
        profile.gauge("mem.build.rss_kb", 1234)
        summary = profile.summary()
        assert summary["gauges"]["mem.build.rss_kb"] == 1234
        assert "mem.build.rss_kb" in profile.report()
