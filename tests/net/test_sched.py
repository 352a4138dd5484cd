"""Tests for the discrete-event concurrent runtime.

Covers the event heap's ordering contract, per-peer bounded service
queues, the serve / queue-drop / timeout-retry receipt paths (including
the duplicate-demand race where a timed-out request still consumes
service), straggler peers, and the determinism contract: same seed +
same spawn sequence ⇒ identical event interleaving, receipts, and
fingerprints (checked as a hypothesis property).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    QUEUE_DROP,
    SERVED,
    TIMED_OUT,
    ConstantLatency,
    DeliveryPolicy,
    EventLoop,
    PeerServer,
    Scheduler,
    SendRequest,
    ServiceReceipt,
    Sleep,
    replay_timeline,
)


class TestEventLoop:
    def test_fires_in_time_order(self) -> None:
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, lambda: fired.append("b"))
        loop.schedule(1.0, lambda: fired.append("a"))
        loop.schedule(9.0, lambda: fired.append("c"))
        assert loop.run() == 3
        assert fired == ["a", "b", "c"]
        assert loop.now == 9.0

    def test_same_instant_ties_break_by_schedule_order(self) -> None:
        loop = EventLoop()
        fired = []
        for tag in ("first", "second", "third"):
            loop.schedule(2.0, lambda t=tag: fired.append(t))
        loop.run()
        assert fired == ["first", "second", "third"]

    def test_events_can_schedule_more_events(self) -> None:
        loop = EventLoop()
        fired = []

        def outer() -> None:
            fired.append(("outer", loop.now))
            loop.schedule(3.0, lambda: fired.append(("inner", loop.now)))

        loop.schedule(1.0, outer)
        loop.run()
        assert fired == [("outer", 1.0), ("inner", 4.0)]

    def test_cancel_unschedules(self) -> None:
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        assert loop.run() == 0
        assert fired == []

    def test_negative_delay_rejected(self) -> None:
        with pytest.raises(ValueError):
            EventLoop().schedule(-0.1, lambda: None)

    def test_runaway_guard(self) -> None:
        loop = EventLoop()

        def respawn() -> None:
            loop.schedule(1.0, respawn)

        loop.schedule(0.0, respawn)
        with pytest.raises(RuntimeError, match="runaway"):
            loop.run(max_events=100)


class TestPeerServer:
    def test_idle_server_serves_immediately(self) -> None:
        server = PeerServer(7, service_time_ms=2.0, queue_depth=4)
        assert server.admit(10.0) == (10.0, 12.0)
        assert server.served == 1
        assert server.mean_wait_ms == 0.0

    def test_busy_server_queues_fifo(self) -> None:
        server = PeerServer(7, service_time_ms=2.0, queue_depth=4)
        server.admit(0.0)
        assert server.admit(0.5) == (2.0, 4.0)  # waits for the first
        assert server.wait_ms == 1.5
        assert server.max_depth == 2

    def test_bounded_queue_drops_at_the_door(self) -> None:
        server = PeerServer(7, service_time_ms=10.0, queue_depth=2)
        assert server.admit(0.0) is not None
        assert server.admit(0.0) is not None
        assert server.admit(0.0) is None  # backlog full (incl. in-service)
        assert server.queue_drops == 1
        assert server.arrivals == 3
        assert server.served == 2

    def test_depth_drains_as_virtual_time_passes(self) -> None:
        server = PeerServer(7, service_time_ms=10.0, queue_depth=2)
        server.admit(0.0)
        server.admit(0.0)
        assert server.depth(5.0) == 2
        assert server.depth(10.0) == 1  # first finished at t=10
        assert server.depth(20.0) == 0
        # Backlog freed → admissible again.
        assert server.admit(20.0) == (20.0, 30.0)

    def test_utilization(self) -> None:
        server = PeerServer(7, service_time_ms=2.0, queue_depth=4)
        server.admit(0.0)
        server.admit(0.0)
        assert server.utilization(8.0) == 0.5
        assert server.utilization(0.0) == 0.0

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            PeerServer(1, service_time_ms=0.0, queue_depth=4)
        with pytest.raises(ValueError):
            PeerServer(1, service_time_ms=1.0, queue_depth=0)


def op_sending(dsts, kind="rpc"):
    """A little operation program: one send per destination."""
    return replay_timeline([(kind, dst) for dst in dsts])


class TestSchedulerServePath:
    def test_single_op_served(self) -> None:
        sched = Scheduler(service_time_ms=0.5)
        fut = sched.spawn(op_sending([3, 4]), label="q0")
        sched.run()
        assert fut.done
        receipts = fut.result
        assert [r.outcome for r in receipts] == [SERVED, SERVED]
        assert all(r.ok and r.attempts == 1 for r in receipts)
        assert fut.latency_ms == pytest.approx(1.0)  # two sequential serves
        assert fut.failed_sends == 0
        assert sched.stats()["ops_completed"] == 1

    def test_ops_to_distinct_peers_overlap(self) -> None:
        """Concurrency is real: N ops on N different peers take one
        service time of makespan, not N of them."""
        sched = Scheduler(service_time_ms=5.0)
        for dst in range(8):
            sched.spawn(op_sending([dst]))
        sched.run()
        assert sched.loop.now == pytest.approx(5.0)
        assert all(op.latency_ms == pytest.approx(5.0) for op in sched.ops)

    def test_ops_to_same_peer_queue_up(self) -> None:
        sched = Scheduler(service_time_ms=5.0)
        futs = [sched.spawn(op_sending([9])) for _ in range(4)]
        sched.run()
        assert sched.loop.now == pytest.approx(20.0)
        waits = sorted(f.receipts[0].wait_ms for f in futs)
        assert waits == pytest.approx([0.0, 5.0, 10.0, 15.0])
        assert sched.server(9).max_depth == 4

    def test_sleep_suspends_without_consuming_service(self) -> None:
        def program():
            yield Sleep(7.0)
            receipt = yield SendRequest(dst=1)
            return receipt

        sched = Scheduler(service_time_ms=1.0)
        fut = sched.spawn(program())
        sched.run()
        assert fut.result.ok
        assert fut.latency_ms == pytest.approx(8.0)

    def test_spawn_delay_staggers_submission(self) -> None:
        sched = Scheduler(service_time_ms=1.0)
        fut = sched.spawn(op_sending([1]), delay_ms=4.0)
        sched.run()
        assert fut.submitted_ms == 4.0
        assert fut.latency_ms == pytest.approx(1.0)

    def test_latency_model_adds_network_legs(self) -> None:
        sched = Scheduler(latency=ConstantLatency(3.0), service_time_ms=1.0)
        fut = sched.spawn(op_sending([1]))
        sched.run()
        # 3ms out + 1ms service + 3ms back
        assert fut.receipts[0].latency_ms == pytest.approx(7.0)

    def test_bad_yield_type_rejected(self) -> None:
        def program():
            yield "not a request"

        sched = Scheduler()
        sched.spawn(program())
        with pytest.raises(TypeError, match="expected SendRequest or Sleep"):
            sched.run()

    def test_done_callback_fires_on_completion_and_late_add(self) -> None:
        sched = Scheduler(service_time_ms=1.0)
        seen = []
        fut = sched.spawn(op_sending([1]))
        fut.add_done_callback(lambda f: seen.append(("early", f.op_id)))
        sched.run()
        fut.add_done_callback(lambda f: seen.append(("late", f.op_id)))
        assert seen == [("early", 0), ("late", 0)]


class TestTimeoutRetryRaces:
    def slow_policy(self, **kwargs) -> DeliveryPolicy:
        defaults = dict(
            timeout_ms=10.0,
            max_retries=2,
            backoff_base_ms=1.0,
            backoff_factor=2.0,
            jitter_ms=0.0,
        )
        defaults.update(kwargs)
        return DeliveryPolicy(**defaults)

    def test_slow_service_times_out_and_fails(self) -> None:
        """Service slower than the timeout ⇒ every attempt is wasted
        work and the op observes a TIMED_OUT receipt."""
        sched = Scheduler(policy=self.slow_policy(), service_time_ms=50.0)
        fut = sched.spawn(op_sending([5]))
        sched.run()
        receipt = fut.result[0]
        assert receipt.outcome == TIMED_OUT
        assert not receipt.ok
        assert receipt.attempts == 3  # initial + 2 retries
        assert sched.retries == 2
        assert sched.timeouts == 3
        assert fut.failed_sends == 1

    def test_timed_out_work_still_occupies_the_server(self) -> None:
        """The duplicate-demand race: retries of a timed-out request
        each consume service at the destination."""
        sched = Scheduler(policy=self.slow_policy(), service_time_ms=50.0)
        sched.spawn(op_sending([5]))
        sched.run()
        server = sched.server(5)
        assert server.arrivals == 3  # all three attempts demanded service
        assert server.served == 3
        assert server.busy_ms == pytest.approx(150.0)

    def test_queue_overflow_yields_queue_drop_receipt(self) -> None:
        """queue_depth=1 with many simultaneous clients: overflowing
        arrivals are dropped at the door and surface as QUEUE_DROP."""
        sched = Scheduler(
            policy=self.slow_policy(), service_time_ms=50.0, queue_depth=1
        )
        futs = [sched.spawn(op_sending([5])) for _ in range(3)]
        sched.run()
        outcomes = {f.result[0].outcome for f in futs}
        assert QUEUE_DROP in outcomes
        assert sched.queue_drops > 0
        assert sched.server(5).queue_drops == sched.queue_drops

    def test_network_slower_than_timeout_races_the_sender(self) -> None:
        """Outbound latency ≥ timeout: the sender retries on schedule
        while the original message is still in flight, and the late
        arrival still demands service."""
        sched = Scheduler(
            latency=ConstantLatency(15.0),
            policy=self.slow_policy(),
            service_time_ms=1.0,
        )
        fut = sched.spawn(op_sending([5]))
        sched.run()
        assert fut.result[0].outcome == TIMED_OUT
        assert sched.server(5).arrivals == 3  # late arrivals admitted too
        assert sched.messages_sent == 3

    def test_reply_losing_the_race_counts_as_timeout(self) -> None:
        """Service fits, but service + return leg blows the timeout:
        the serve is recorded yet the sender retries."""
        sched = Scheduler(
            latency=ConstantLatency(4.0),
            policy=self.slow_policy(),
            service_time_ms=5.0,
        )
        sched.spawn(op_sending([5]))
        sched.run()
        # 4 out + 5 service + 4 back = 13 > 10 timeout on every attempt.
        assert sched.timeouts == 3
        assert sched.server(5).served == 3

    def test_slow_peer_factor_scales_service_time(self) -> None:
        sched = Scheduler(service_time_ms=2.0, slow_peers={5: 8.0})
        assert sched.server(5).service_time_ms == pytest.approx(16.0)
        assert sched.server(6).service_time_ms == pytest.approx(2.0)

    def test_stragglers_inflate_only_their_victims(self) -> None:
        slow = Scheduler(
            policy=self.slow_policy(timeout_ms=500.0),
            service_time_ms=1.0,
            slow_peers={0: 100.0},
        )
        fast_fut = slow.spawn(op_sending([1]))
        slow_fut = slow.spawn(op_sending([0]))
        slow.run()
        assert fast_fut.latency_ms == pytest.approx(1.0)
        assert slow_fut.latency_ms == pytest.approx(100.0)


class TestDeterminism:
    def build_and_run(self, seed: int, plan) -> Scheduler:
        sched = Scheduler(
            latency=ConstantLatency(1.0),
            policy=DeliveryPolicy(
                timeout_ms=20.0,
                max_retries=2,
                backoff_base_ms=1.0,
                backoff_factor=2.0,
                jitter_ms=0.5,
            ),
            service_time_ms=3.0,
            queue_depth=4,
            slow_peers={0: 10.0},
            seed=seed,
        )
        for delay, dsts in plan:
            sched.spawn(op_sending(dsts), delay_ms=delay)
        sched.run()
        return sched

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        plan=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.lists(
                    st.integers(min_value=0, max_value=5), min_size=1, max_size=3
                ),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_seed_same_plan_identical_runs(self, seed, plan) -> None:
        """Satellite 3: same seed + same spawn sequence ⇒ identical
        event interleaving, receipts, and final fingerprints."""
        a = self.build_and_run(seed, plan)
        b = self.build_and_run(seed, plan)
        assert a.fingerprint() == b.fingerprint()
        assert a.latencies() == b.latencies()
        assert a.stats() == b.stats()
        for op_a, op_b in zip(a.ops, b.ops):
            assert op_a.receipts == op_b.receipts
            assert op_a.result == op_b.result

    def test_fingerprint_of_a_fixed_plan_is_pinned(self) -> None:
        """The literal pins the bytes the digest is fed per decision
        (``now!r|op|event|dst``): every ``schedule_fingerprint``
        committed in ``BENCH_CONCURRENCY.json`` depends on them.  The
        plan overflows peer 0's queue, so every event kind (spawn, send,
        drop, serve, timeout, resume, complete) is in it."""
        plan = [(0.0, [0, 1]), (0.5, [0]), (2.0, [3, 0, 5])] + [(0.0, [0])] * 5
        sched = self.build_and_run(7, plan)
        assert sched.stats()["queue_drops"] == 19
        assert sched.fingerprint() == (
            "0f8337b5a5286c5135cfd26818178b0bab410646665a0d8b057a87adc9874e8b"
        )

    def test_fingerprint_can_be_read_mid_run(self) -> None:
        sched = Scheduler()
        empty = sched.fingerprint()
        sched.spawn(op_sending([1]))
        spawned = sched.fingerprint()
        sched.run()
        assert len({empty, spawned, sched.fingerprint()}) == 3

    def test_fingerprint_distinguishes_different_plans(self) -> None:
        a = self.build_and_run(0, [(0.0, [1])])
        b = self.build_and_run(0, [(0.0, [2])])
        assert a.fingerprint() != b.fingerprint()


class TestReplayTimeline:
    def test_replays_kinds_and_destinations_in_order(self) -> None:
        timeline = [("lookup", 2), ("search_term", 3), ("postings", 2)]
        sent = []

        class Probe(Scheduler):
            def _attempt(self, op, program, future, *args, **kwargs):
                if len(sent) < len(timeline) and (
                    not sent or sent[-1] != (future.kind, future.dst)
                ):
                    sent.append((future.kind, future.dst))
                super()._attempt(op, program, future, *args, **kwargs)

        sched = Probe(service_time_ms=0.25)
        fut = sched.spawn(replay_timeline(timeline))
        sched.run()
        assert sent == timeline
        assert [r.ok for r in fut.result] == [True, True, True]

    def test_empty_timeline_completes_immediately(self) -> None:
        sched = Scheduler()
        fut = sched.spawn(replay_timeline([]))
        sched.run()
        assert fut.done
        assert fut.result == []
        assert fut.latency_ms == 0.0

    def test_receipt_equality_is_structural(self) -> None:
        assert ServiceReceipt(SERVED, 1, 2.0) == ServiceReceipt(SERVED, 1, 2.0)
