"""Tests for delivery semantics: perfect and lossy transports."""

from __future__ import annotations

import random

import pytest

from repro.config import NetworkConfig
from repro.dht.messages import Message, MessageKind
from repro.net import (
    ConstantLatency,
    DeliveryOutcome,
    DeliveryPolicy,
    FaultInjector,
    LogNormalLatency,
    LossyTransport,
    PerfectTransport,
    TraceLog,
    Transport,
    build_latency_model,
    build_transport,
)


def msg(src: int = 1, dst: int = 2) -> Message:
    return Message(MessageKind.SEARCH_TERM, src=src, dst=dst)


class TestPerfectTransport:
    def test_instant_first_attempt_delivery(self) -> None:
        transport = PerfectTransport()
        receipt = transport.deliver(msg())
        assert receipt.ok
        assert receipt.attempts == 1
        assert receipt.latency_ms == 0.0
        assert transport.clock.now == 0.0

    def test_dead_destination(self) -> None:
        receipt = PerfectTransport().deliver(msg(), dst_alive=False)
        assert receipt.outcome is DeliveryOutcome.DEST_DOWN

    def test_inactive_without_trace(self) -> None:
        assert PerfectTransport().active is False

    def test_active_with_trace(self) -> None:
        transport = PerfectTransport(trace=TraceLog())
        assert transport.active is True
        transport.deliver(msg())
        assert transport.trace.rollup().delivered == 1

    def test_satisfies_protocol(self) -> None:
        assert isinstance(PerfectTransport(), Transport)

    def test_an_untraced_delivery_allocates_no_receipt(self) -> None:
        """Without a trace the only two receipts a perfect transport can
        write are handed out as they are, one object each."""
        transport = PerfectTransport()
        delivered = transport.deliver(msg())
        assert transport.deliver(msg(3, 4)) is delivered and delivered.ok
        down = transport.deliver(msg(), dst_alive=False)
        assert transport.deliver(msg(5, 6), dst_alive=False) is down and not down.ok
        # A traced transport returns the same receipts and records each one.
        log = TraceLog()
        traced = PerfectTransport(trace=log)
        assert traced.deliver(msg()) == delivered
        assert traced.deliver(msg(), dst_alive=False) == down
        assert [t.outcome for t in log.records] == ["delivered", "dest_down"]

    def test_a_receipt_is_immutable(self) -> None:
        receipt = LossyTransport(seed=1).deliver(msg())
        with pytest.raises(AttributeError):
            receipt.attempts = 9  # type: ignore[misc]


class TestLossyDelivery:
    def test_lossless_config_delivers_with_latency(self) -> None:
        transport = LossyTransport(latency=ConstantLatency(ms=30.0), seed=1)
        receipt = transport.deliver(msg())
        assert receipt.ok
        assert receipt.attempts == 1
        assert receipt.latency_ms == 30.0
        assert transport.clock.now == 30.0

    def test_always_active(self) -> None:
        assert LossyTransport().active is True

    def test_certain_drop_exhausts_retries(self) -> None:
        policy = DeliveryPolicy(timeout_ms=100.0, max_retries=2,
                                backoff_base_ms=10.0, jitter_ms=0.0)
        transport = LossyTransport(
            faults=FaultInjector(drop_probability=1.0), policy=policy, seed=1
        )
        receipt = transport.deliver(msg())
        assert receipt.outcome is DeliveryOutcome.DROPPED
        assert receipt.attempts == 3  # 1 + max_retries
        # 3 timeouts + backoffs of 10 and 20 ms
        assert receipt.latency_ms == pytest.approx(330.0)

    def test_dead_destination_burns_all_attempts(self) -> None:
        policy = DeliveryPolicy(timeout_ms=50.0, max_retries=1,
                                backoff_base_ms=0.0, jitter_ms=0.0)
        transport = LossyTransport(policy=policy, seed=1)
        receipt = transport.deliver(msg(), dst_alive=False)
        assert receipt.outcome is DeliveryOutcome.DEST_DOWN
        assert receipt.attempts == 2
        assert receipt.latency_ms == pytest.approx(100.0)

    def test_retry_recovers_from_transient_drop(self) -> None:
        # With p=0.5 and 4 attempts, most messages still get through;
        # with retries disabled many do not — the whole point of the
        # delivery policy.
        policy_with = DeliveryPolicy(max_retries=3, jitter_ms=0.0)
        policy_without = DeliveryPolicy(max_retries=0, jitter_ms=0.0)

        def delivered(policy: DeliveryPolicy) -> int:
            transport = LossyTransport(
                latency=ConstantLatency(ms=10.0),
                faults=FaultInjector(drop_probability=0.5),
                policy=policy,
                seed=7,
            )
            return sum(transport.deliver(msg()).ok for __ in range(300))

        assert delivered(policy_with) > 260
        assert delivered(policy_without) < 200

    def test_timeout_treats_slow_attempt_as_loss(self) -> None:
        policy = DeliveryPolicy(timeout_ms=100.0, max_retries=0, jitter_ms=0.0)
        transport = LossyTransport(latency=ConstantLatency(ms=500.0),
                                   policy=policy, seed=1)
        receipt = transport.deliver(msg())
        assert receipt.outcome is DeliveryOutcome.DROPPED
        assert receipt.latency_ms == pytest.approx(100.0)

    def test_slow_node_pushes_past_timeout(self) -> None:
        faults = FaultInjector()
        faults.mark_slow(2, 10.0)  # dst 10x slower: 60ms -> 600ms > timeout
        policy = DeliveryPolicy(timeout_ms=400.0, max_retries=0, jitter_ms=0.0)
        transport = LossyTransport(latency=ConstantLatency(ms=60.0),
                                   faults=faults, policy=policy, seed=1)
        assert transport.deliver(msg(dst=2)).outcome is DeliveryOutcome.DROPPED
        assert transport.deliver(msg(dst=3)).ok

    def test_blackout_window_blocks_then_heals(self) -> None:
        faults = FaultInjector()
        faults.blackout(2, start_ms=0.0, end_ms=200.0)
        policy = DeliveryPolicy(timeout_ms=50.0, max_retries=0,
                                backoff_base_ms=0.0, jitter_ms=0.0)
        transport = LossyTransport(latency=ConstantLatency(ms=10.0),
                                   faults=faults, policy=policy, seed=1)
        # During the window every delivery times out (clock: 0 -> 200).
        outcomes = [transport.deliver(msg(dst=2)).outcome for __ in range(4)]
        assert outcomes == [DeliveryOutcome.DROPPED] * 4
        # The clock has left the window; deliveries succeed again.
        assert transport.deliver(msg(dst=2)).ok

    def test_trace_records_every_delivery(self) -> None:
        transport = LossyTransport(seed=3)
        transport.deliver(msg())
        transport.deliver(msg(), dst_alive=False)
        summary = transport.trace.rollup()
        assert summary.messages == 2
        assert summary.delivered == 1
        assert summary.dest_down == 1


class TestDeliveryPolicy:
    def test_backoff_grows_exponentially(self) -> None:
        policy = DeliveryPolicy(backoff_base_ms=100.0, backoff_factor=2.0,
                                jitter_ms=0.0)
        rng = random.Random(0)
        assert policy.backoff_before(0, rng) == 0.0
        assert policy.backoff_before(1, rng) == 100.0
        assert policy.backoff_before(2, rng) == 200.0
        assert policy.backoff_before(3, rng) == 400.0

    def test_jitter_bounded(self) -> None:
        policy = DeliveryPolicy(backoff_base_ms=100.0, jitter_ms=20.0)
        rng = random.Random(0)
        for __ in range(50):
            backoff = policy.backoff_before(1, rng)
            assert 100.0 <= backoff <= 120.0

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            DeliveryPolicy(timeout_ms=0.0)
        with pytest.raises(ValueError):
            DeliveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            DeliveryPolicy(backoff_factor=0.5)


class TestDeterminism:
    def test_same_seed_identical_history(self) -> None:
        def run(seed: int) -> str:
            transport = LossyTransport(
                latency=LogNormalLatency(),
                faults=FaultInjector(drop_probability=0.2),
                seed=seed,
            )
            for i in range(200):
                transport.deliver(msg(src=i, dst=i + 1))
            return transport.trace.summary_table()

        assert run(11) == run(11)

    def test_different_seed_different_history(self) -> None:
        def run(seed: int) -> str:
            transport = LossyTransport(
                latency=LogNormalLatency(),
                faults=FaultInjector(drop_probability=0.2),
                seed=seed,
            )
            for __ in range(200):
                transport.deliver(msg())
            return transport.trace.summary_table()

        assert run(11) != run(12)


class TestFactory:
    def test_none_yields_perfect(self) -> None:
        assert isinstance(build_transport(None), PerfectTransport)

    def test_default_config_yields_perfect(self) -> None:
        assert isinstance(build_transport(NetworkConfig()), PerfectTransport)

    def test_lossy_config(self) -> None:
        config = NetworkConfig(transport="lossy", drop_probability=0.1,
                               latency_model="lognormal", seed=5)
        transport = build_transport(config)
        assert isinstance(transport, LossyTransport)
        assert transport.faults.drop_probability == 0.1
        assert isinstance(transport.latency, LogNormalLatency)
        assert transport.trace is not None

    def test_trace_disabled(self) -> None:
        config = NetworkConfig(transport="lossy", keep_trace=False)
        assert build_transport(config).trace is None

    def test_latency_model_selection(self) -> None:
        assert isinstance(
            build_latency_model(NetworkConfig(latency_model="constant")),
            ConstantLatency,
        )
        assert isinstance(
            build_latency_model(NetworkConfig(latency_model="lognormal")),
            LogNormalLatency,
        )

    def test_same_config_seed_reproducible(self) -> None:
        config = NetworkConfig(transport="lossy", drop_probability=0.3, seed=21)

        def run() -> str:
            transport = build_transport(config)
            for __ in range(100):
                transport.deliver(msg())
            return transport.trace.summary_table()

        assert run() == run()


class TestFlakyIntegration:
    def test_flaky_responder_drops_its_messages_only(self) -> None:
        policy = DeliveryPolicy(timeout_ms=100.0, max_retries=0,
                                backoff_base_ms=0.0, jitter_ms=0.0)
        faults = FaultInjector()
        faults.mark_flaky(2, 1.0)  # node 2 eats every attempt
        transport = LossyTransport(
            latency=ConstantLatency(ms=5.0), faults=faults, policy=policy,
            seed=1,
        )
        assert transport.deliver(msg(1, 2)).outcome is DeliveryOutcome.DROPPED
        assert transport.deliver(msg(2, 3)).outcome is DeliveryOutcome.DROPPED
        assert transport.deliver(msg(3, 4)).ok

    def test_marking_flaky_does_not_desync_clean_paths(self) -> None:
        def history(flaky: bool) -> list:
            faults = FaultInjector()
            if flaky:
                faults.mark_flaky(99, 0.5)  # node never touched below
            transport = LossyTransport(
                latency=LogNormalLatency(median_ms=5.0, sigma=0.5),
                faults=faults,
                seed=11,
            )
            receipts = [transport.deliver(msg(1, 2)) for __ in range(40)]
            return [(r.ok, r.attempts, r.latency_ms) for r in receipts]

        # A delivery draws no drop on a clean src/dst pair (rate zero),
        # so replays with and without unrelated flaky peers agree.
        assert history(flaky=False) == history(flaky=True)
