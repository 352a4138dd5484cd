"""Configuration plumbing and CLI surface of the durable store."""

from __future__ import annotations

import io
from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.config import STORE_BACKENDS, SpriteConfig
from repro.evaluation import build_esearch
from repro.exceptions import ConfigurationError
from repro.store import StoreRuntime, build_store_runtime


class TestConfig:
    def test_backends_catalogue(self) -> None:
        assert STORE_BACKENDS == ("memory", "sqlite")

    def test_default_is_memory(self) -> None:
        config = SpriteConfig()
        assert config.store_backend == "memory"
        assert build_store_runtime(config) is None

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            SpriteConfig(store_backend="postgres")

    def test_sqlite_backend_builds_runtime(self, tmp_path) -> None:
        config = SpriteConfig(
            store_backend="sqlite",
            store_dir=str(tmp_path / "store"),
            snapshot_dir=str(tmp_path / "snaps"),
        )
        runtime = build_store_runtime(config)
        try:
            assert isinstance(runtime, StoreRuntime)
            assert runtime.db_path.exists()
            assert runtime.snapshots.root == tmp_path / "snaps"
        finally:
            runtime.close()

    def test_the_static_baseline_inherits_the_deployment(
        self, small_env, tmp_path
    ) -> None:
        """eSearch differs from SPRITE in term selection only, so it
        inherits the store, both cache sizes and everything else the
        experiment configured."""
        sprite = replace(
            small_env.config.sprite,
            store_backend="sqlite",
            store_dir=str(tmp_path / "store"),
            result_cache_size=64,
            query_cache_size=123,
        )
        env = replace(small_env, config=replace(small_env.config, sprite=sprite))
        system = build_esearch(env, index_terms=4)
        try:
            assert isinstance(system.store_runtime, StoreRuntime)
            assert system.config == sprite.static_baseline(4)
            assert system.protocol.query_cache_size == 123
            assert system.protocol.result_cache_size == 64
            assert system.store_runtime.stats()["postings"] == system.total_published_terms()
        finally:
            system.store_runtime.close()

    def test_temp_store_dir_cleans_up_on_close(self) -> None:
        runtime = StoreRuntime()
        root = runtime.root
        assert root.exists()
        runtime.close()
        assert not root.exists()


class TestCliFlags:
    def test_check_accepts_store_flags(self) -> None:
        args = build_parser().parse_args(
            [
                "check",
                "--random",
                "--store-backend",
                "sqlite",
                "--store-dir",
                "/tmp/x",
                "--snapshot-dir",
                "/tmp/y",
                "--snapshot-interval",
                "25",
            ]
        )
        assert args.store_backend == "sqlite"
        assert args.snapshot_interval == 25

    def test_check_runs_with_sqlite_store(self, tmp_path) -> None:
        out = io.StringIO()
        code = main(
            [
                "check",
                "--random",
                "--events",
                "12",
                "--peers",
                "8",
                "--store-backend",
                "sqlite",
                "--store-dir",
                str(tmp_path / "store"),
                "--snapshot-dir",
                str(tmp_path / "snaps"),
                "--snapshot-interval",
                "4",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0, text
        assert "durable-store events mixed in" in text
        assert "store:" in text

    def test_check_memory_backend_prints_no_store_stats(self) -> None:
        out = io.StringIO()
        code = main(
            ["check", "--random", "--events", "10", "--peers", "8"],
            out=out,
        )
        assert code == 0, out.getvalue()
        assert "store:" not in out.getvalue()
