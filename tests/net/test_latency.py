"""Tests for per-message latency models."""

from __future__ import annotations

import random

import pytest

from repro.net import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
)


class TestConstant:
    def test_always_same(self) -> None:
        model = ConstantLatency(ms=42.0)
        rng = random.Random(0)
        assert [model.sample(rng) for __ in range(5)] == [42.0] * 5

    def test_negative_rejected(self) -> None:
        with pytest.raises(ValueError):
            ConstantLatency(ms=-1.0)


class TestLogNormal:
    def test_positive_and_heavy_tailed(self) -> None:
        model = LogNormalLatency(median_ms=60.0, sigma=0.55)
        rng = random.Random(13)
        samples = sorted(model.sample(rng) for __ in range(2000))
        assert all(s > 0 for s in samples)
        median = samples[len(samples) // 2]
        assert 50.0 < median < 72.0          # concentrates near the median
        assert samples[-1] > 3 * median      # with a long tail

    def test_sigma_zero_is_constant(self) -> None:
        model = LogNormalLatency(median_ms=60.0, sigma=0.0)
        rng = random.Random(1)
        assert model.sample(rng) == pytest.approx(60.0)

    def test_invalid_params_rejected(self) -> None:
        with pytest.raises(ValueError):
            LogNormalLatency(median_ms=0.0)
        with pytest.raises(ValueError):
            LogNormalLatency(sigma=-0.1)


class TestProtocol:
    def test_all_models_satisfy_protocol(self) -> None:
        for model in (ConstantLatency(), LogNormalLatency()):
            assert isinstance(model, LatencyModel)


class TestDeterminism:
    def test_same_rng_seed_same_samples(self) -> None:
        model = LogNormalLatency()
        a = [model.sample(random.Random(99)) for __ in range(1)]
        b = [model.sample(random.Random(99)) for __ in range(1)]
        assert a == b
