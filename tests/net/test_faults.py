"""Tests for the fault injector: the plan a delivery reads
(:meth:`FaultInjector.pair_plan`), and the drops a transport draws
against it."""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.dht.messages import Message, MessageKind
from repro.net import ConstantLatency, DeliveryPolicy, FaultInjector, LossyTransport


#: Two distinct endpoints, neither flaky: a delivery between them draws
#: against the global rate alone.
SRC, DST = 1, 2


def lost(faults: FaultInjector, src: int, dst: int, rng: random.Random, n: int) -> List[bool]:
    """Whether each of *n* one-attempt deliveries src→dst was lost.  The
    latency is constant, so the drop draw is the only draw."""
    transport = LossyTransport(
        latency=ConstantLatency(ms=1.0),
        faults=faults,
        policy=DeliveryPolicy(max_retries=0),
        rng=rng,
    )
    return [not transport.deliver(Message(MessageKind.LOOKUP, src, dst)).ok for __ in range(n)]


class TestDrops:
    def test_zero_probability_never_drops(self) -> None:
        injector = FaultInjector(drop_probability=0.0)
        rng = random.Random(0)
        assert not any(lost(injector, SRC, DST, rng, 100))

    def test_probability_one_always_drops(self) -> None:
        injector = FaultInjector(drop_probability=1.0)
        rng = random.Random(0)
        assert all(lost(injector, SRC, DST, rng, 100))

    def test_rate_roughly_respected(self) -> None:
        injector = FaultInjector(drop_probability=0.3)
        rng = random.Random(42)
        drops = sum(lost(injector, SRC, DST, rng, 5000))
        assert 0.25 < drops / 5000 < 0.35

    def test_zero_probability_consumes_no_randomness(self) -> None:
        injector = FaultInjector(drop_probability=0.0)
        rng = random.Random(5)
        before = rng.getstate()
        lost(injector, SRC, DST, rng, 1)
        assert rng.getstate() == before

    def test_invalid_probability_rejected(self) -> None:
        with pytest.raises(ValueError):
            FaultInjector(drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultInjector(drop_probability=-0.1)


class TestBlackouts:
    def test_window_is_half_open(self) -> None:
        injector = FaultInjector()
        injector.blackout(7, start_ms=100.0, end_ms=200.0)
        assert not injector.in_blackout(7, 99.9)
        assert injector.in_blackout(7, 100.0)
        assert injector.in_blackout(7, 199.9)
        assert not injector.in_blackout(7, 200.0)

    def test_only_named_node_affected(self) -> None:
        injector = FaultInjector()
        injector.blackout(7, 0.0, 1000.0)
        assert not injector.in_blackout(8, 500.0)

    def test_multiple_windows(self) -> None:
        injector = FaultInjector()
        injector.blackout(1, 0.0, 10.0)
        injector.blackout(1, 50.0, 60.0)
        assert injector.in_blackout(1, 5.0)
        assert not injector.in_blackout(1, 30.0)
        assert injector.in_blackout(1, 55.0)

    def test_empty_window_rejected(self) -> None:
        with pytest.raises(ValueError):
            FaultInjector().blackout(1, 10.0, 10.0)


class TestSlowNodes:
    def test_default_factor_is_one(self) -> None:
        assert FaultInjector().pair_plan(1, 2)[1] == 1.0

    def test_src_and_dst_factors_multiply(self) -> None:
        injector = FaultInjector()
        injector.mark_slow(1, 3.0)
        injector.mark_slow(2, 2.0)
        assert injector.pair_plan(1, 2)[1] == 6.0
        assert injector.pair_plan(1, 9)[1] == 3.0
        assert injector.pair_plan(9, 2)[1] == 2.0

    def test_clear_slow(self) -> None:
        injector = FaultInjector()
        injector.mark_slow(1, 4.0)
        injector.clear_slow(1)
        assert injector.pair_plan(1, 2)[1] == 1.0
        assert injector.slow_nodes == {}

    def test_speedup_factor_rejected(self) -> None:
        with pytest.raises(ValueError):
            FaultInjector().mark_slow(1, 0.5)


class TestFlakyNodes:
    def test_composed_rate_multiplies_survival_legs(self) -> None:
        faults = FaultInjector(drop_probability=0.1)
        faults.mark_flaky(1, 0.2)
        faults.mark_flaky(2, 0.5)
        expected = 1.0 - (1.0 - 0.1) * (1.0 - 0.2) * (1.0 - 0.5)
        assert faults.pair_plan(1, 2)[0] == pytest.approx(expected)
        # only the src leg when the dst is clean
        assert faults.pair_plan(1, 3)[0] == pytest.approx(
            1.0 - 0.9 * 0.8
        )

    def test_self_send_counts_the_flaky_leg_once(self) -> None:
        faults = FaultInjector()
        faults.mark_flaky(1, 0.25)
        assert faults.pair_plan(1, 1)[0] == pytest.approx(0.25)

    def test_zero_rate_consumes_no_randomness(self) -> None:
        faults = FaultInjector()
        faults.mark_flaky(9, 0.5)
        rng = random.Random(0)
        state = rng.getstate()
        # neither endpoint is flaky and the global rate is zero
        assert lost(faults, 1, 2, rng, 1) == [False]
        assert rng.getstate() == state
        # a flaky endpoint does consume randomness
        lost(faults, 1, 9, rng, 1)
        assert rng.getstate() != state

    def test_certain_loss_always_drops(self) -> None:
        faults = FaultInjector()
        faults.mark_flaky(5, 1.0)
        rng = random.Random(3)
        assert all(lost(faults, 5, 6, rng, 50))

    def test_clear_flaky_restores_the_global_rate(self) -> None:
        faults = FaultInjector()
        faults.mark_flaky(4, 0.3)
        assert faults.flaky_nodes == {4: 0.3}
        faults.clear_flaky(4)
        assert faults.flaky_nodes == {}
        assert faults.pair_plan(4, 5)[0] == 0.0
        faults.clear_flaky(4)  # idempotent on unknown nodes

    def test_probability_validated(self) -> None:
        faults = FaultInjector()
        with pytest.raises(ValueError):
            faults.mark_flaky(1, -0.1)
        with pytest.raises(ValueError):
            faults.mark_flaky(1, 1.1)

    def test_flaky_nodes_property_returns_a_copy(self) -> None:
        faults = FaultInjector()
        faults.mark_flaky(1, 0.2)
        snapshot = faults.flaky_nodes
        snapshot[1] = 0.9
        assert faults.flaky_nodes == {1: 0.2}
