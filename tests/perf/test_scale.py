"""The scale-out harness: shard partitioning, worker-count
determinism, and the merged measurement record (DESIGN.md §13)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.perf.scale import (
    ScaleWorkloadConfig,
    ShardedHarness,
    _shard_slice,
    memory_usage,
    run_scale_workload,
    scale_paper_config,
    scale_smoke_config,
)


def tiny_config(**kwargs) -> ScaleWorkloadConfig:
    base = ScaleWorkloadConfig(
        num_peers=120,
        num_documents=90,
        vocabulary_size=150,
        terms_per_document=6,
        num_queries=80,
        distinct_queries=25,
        queriers_per_shard=6,
        num_shards=4,
        workers=1,
    )
    return base.replaced(**kwargs)


class TestShardSlice:
    def test_slices_partition_the_total(self) -> None:
        for total in (0, 1, 7, 100, 100_001):
            for num_shards in (1, 3, 16):
                slices = [
                    _shard_slice(total, num_shards, i) for i in range(num_shards)
                ]
                assert sum(slices) == total
                # Remainder goes to the low shards: sizes differ by <= 1
                # and never increase with shard id.
                assert max(slices) - min(slices) <= 1
                assert slices == sorted(slices, reverse=True)


class TestDeterminism:
    def test_worker_count_does_not_change_results(self) -> None:
        """The unit of determinism is the shard: fanning the same
        config over 1 or 4 worker processes must produce identical
        per-shard and merged checksums."""
        cfg = tiny_config()
        inline = run_scale_workload(cfg.replaced(workers=1))
        pooled = run_scale_workload(cfg.replaced(workers=4))
        assert inline.shard_checksums == pooled.shard_checksums
        assert inline.ranking_checksum == pooled.ranking_checksum
        assert inline.postings_published == pooled.postings_published
        assert pooled.workers == 4

    def test_same_config_reproduces(self) -> None:
        cfg = tiny_config()
        assert (
            run_scale_workload(cfg).ranking_checksum
            == run_scale_workload(cfg).ranking_checksum
        )

    def test_seed_and_sharding_change_results(self) -> None:
        base = run_scale_workload(tiny_config())
        reseeded = run_scale_workload(tiny_config(seed=9999))
        repartitioned = run_scale_workload(tiny_config(num_shards=2))
        assert base.ranking_checksum != reseeded.ranking_checksum
        # Shard count fixes the partitioning, so it is part of the
        # workload identity — unlike the worker count.
        assert base.ranking_checksum != repartitioned.ranking_checksum


class TestMergedRecord:
    def test_result_is_json_friendly_and_complete(self) -> None:
        result = run_scale_workload(tiny_config())
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["num_peers"] == 120
        assert payload["num_shards"] == 4
        assert len(payload["shard_checksums"]) == 4
        assert payload["queries_per_s"] > 0
        assert payload["wall_queries_per_s"] > 0
        assert payload["postings_published"] > 0
        assert payload["peak_rss_kb"] >= 0

    def test_merged_memory_is_max_peak_and_summed_allocations(
        self, monkeypatch
    ) -> None:
        """Each inline shard snapshots memory before and after its run,
        the merge once more: the record keeps the highest peak any of
        them saw and the sum of the shards' allocation deltas."""
        peaks = iter([10, 20, 30, 40, 35])  # shard 0, shard 1, merge

        def fake_usage():
            peak = next(peaks)
            return {"rss_kb": peak, "peak_rss_kb": peak, "allocated_blocks": 7 * peak}

        monkeypatch.setattr("repro.perf.scale.memory_usage", fake_usage)
        result = run_scale_workload(tiny_config(num_shards=2))
        assert result.peak_rss_kb == 40  # >= every shard's and the parent's
        assert result.allocated_blocks_delta == 7 * (20 - 10) + 7 * (40 - 30)

    def test_memory_usage_snapshot_shape(self) -> None:
        snapshot = memory_usage()
        assert set(snapshot) == {"rss_kb", "peak_rss_kb", "allocated_blocks"}
        # Linux/macOS report real numbers; the fallback is all-zero.
        assert snapshot["peak_rss_kb"] >= snapshot["rss_kb"] >= 0
        assert snapshot["allocated_blocks"] >= 0


class TestValidation:
    def test_rejects_bad_shards_workers_and_kernel(self) -> None:
        with pytest.raises(ConfigurationError):
            ShardedHarness(tiny_config(num_shards=0))
        with pytest.raises(ConfigurationError):
            ShardedHarness(tiny_config(workers=0))
        # There is one scoring path; no kernel is selectable any more.
        with pytest.raises(TypeError):
            tiny_config(kernel="numpy")

    def test_named_configs_have_the_tracked_shapes(self) -> None:
        paper = scale_paper_config()
        smoke = scale_smoke_config()
        assert paper.num_peers == 100_000
        assert paper.num_shards == 16
        assert smoke.num_peers < 1_000
        assert smoke.num_shards == 4
        # Both stay valid harness inputs.
        ShardedHarness(paper)
        ShardedHarness(smoke)
