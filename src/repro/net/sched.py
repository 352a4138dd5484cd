"""The discrete-event concurrent runtime (DESIGN.md §15).

Everything before this module executed as a nested synchronous call
chain: one operation at a time, zero overlap, the
:class:`~repro.net.clock.SimulatedClock` summing latencies one delivery
after another.  That model cannot express the thing the paper's §6
latency claims are actually about — behaviour under *concurrent* load,
where throughput and tail latency are dominated by slow or overloaded
peers and by timeout/retry races.

This module supplies the missing execution core:

* :class:`EventLoop` — a virtual-time event heap.  Events fire in
  ``(time, sequence)`` order, so two runs that schedule the same events
  process them identically; there is no wall-clock anywhere.
* :class:`PeerServer` — a per-peer service queue: each peer serves one
  message at a time at a configurable service rate, with a bounded
  backlog.  A message arriving at a full queue is dropped at the door
  (backpressure) and the sender discovers the loss only through its
  timeout — exactly the failure mode overloaded DHT peers exhibit.
* :class:`MessageFuture` — one in-flight message: created at send time,
  resolved with a :class:`ServiceReceipt` when the reply arrives, the
  sender times out, or the queue drops it.
* :class:`Scheduler` — runs *operations* (generator coroutines that
  ``yield`` :class:`SendRequest` / :class:`Sleep`) concurrently: when
  one operation is waiting on a message, others make progress, so
  thousands of in-flight queries, publishes, and maintenance RPCs
  interleave with realistic latency overlap.

Timeout/retry races are modelled faithfully: a sender that times out
retries with backoff while the *original* request may still be sitting
in the slow peer's queue — the retry adds duplicate service demand,
which is precisely how timeout storms amplify overload in real
deployments.

Determinism contract: given the same seed and the same spawn sequence,
two runs produce identical event interleavings, receipts, and final
statistics.  The scheduler feeds every scheduling decision to a running
digest; :meth:`Scheduler.fingerprint` reads it so tests can assert
run-to-run identity cheaply (the hypothesis property in
``tests/net/test_sched.py`` does exactly that).

The synchronous call-stack path remains the semantic oracle: this
runtime only replays the ``(kind, dst)`` timeline of an operation that
already ran, so it decides completion times, never results.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from hashlib import sha256
from typing import (
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .latency import LatencyModel
from .transport import DeliveryPolicy

#: Terminal outcome labels for one in-flight message (plain strings,
#: same serialization-friendly convention as :mod:`repro.net.trace`).
SERVED = "served"
QUEUE_DROP = "queue_drop"
TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class ServiceReceipt:
    """What an operation observes for one message it sent.

    ``latency_ms`` is the sender-side elapsed time across *all*
    attempts — backoffs, burnt timeouts, and the successful attempt's
    network + queue + service time.  ``wait_ms``/``service_ms`` describe
    the served attempt only (0.0 when nothing was served).
    """

    outcome: str
    attempts: int
    latency_ms: float
    wait_ms: float = 0.0
    service_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outcome == SERVED


@dataclass(frozen=True)
class SendRequest:
    """Yielded by an operation: send one message to peer *dst* and
    suspend until its :class:`ServiceReceipt` comes back."""

    dst: int
    kind: str = "rpc"


@dataclass(frozen=True)
class Sleep:
    """Yielded by an operation: suspend for *delay_ms* of virtual time
    (think time, pacing, politeness delays)."""

    delay_ms: float


class MessageFuture:
    """One in-flight message: resolved exactly once with a receipt."""

    __slots__ = ("dst", "kind", "sent_ms", "receipt")

    def __init__(self, dst: int, kind: str, sent_ms: float) -> None:
        self.dst = dst
        self.kind = kind
        self.sent_ms = sent_ms
        self.receipt: Optional[ServiceReceipt] = None

    @property
    def done(self) -> bool:
        return self.receipt is not None

    def resolve(self, receipt: ServiceReceipt) -> None:
        if self.receipt is not None:  # pragma: no cover - defensive
            raise RuntimeError("message future already resolved")
        self.receipt = receipt


class OpFuture:
    """Completion handle for one spawned operation."""

    __slots__ = (
        "op_id",
        "label",
        "submitted_ms",
        "completed_ms",
        "result",
        "receipts",
        "_done",
        "_callbacks",
    )

    def __init__(self, op_id: int, label: str, submitted_ms: float) -> None:
        self.op_id = op_id
        self.label = label
        self.submitted_ms = submitted_ms
        self.completed_ms: float = 0.0
        self.result: object = None
        self.receipts: List[ServiceReceipt] = []
        self._done = False
        self._callbacks: List[Callable[["OpFuture"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def latency_ms(self) -> float:
        """Virtual time from submission to completion."""
        return self.completed_ms - self.submitted_ms

    @property
    def failed_sends(self) -> int:
        return sum(1 for r in self.receipts if not r.ok)

    def add_done_callback(self, fn: Callable[["OpFuture"], None]) -> None:
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _complete(self, now: float, result: object) -> None:
        self.completed_ms = now
        self.result = result
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _Handle:
    """A cancellable scheduled event."""

    __slots__ = ("when", "seq", "fn")

    def __init__(self, when: float, seq: int, fn: Optional[Callable[[], None]]) -> None:
        self.when = when
        self.seq = seq
        self.fn = fn

    def cancel(self) -> None:
        self.fn = None

    def __lt__(self, other: "_Handle") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class EventLoop:
    """A virtual-time event heap.

    Events fire strictly in ``(time, sequence)`` order; the sequence
    number breaks same-instant ties by scheduling order, which is what
    makes whole runs replay identically.  Time never goes backwards and
    is never read from a wall clock.
    """

    def __init__(self) -> None:
        self._heap: List[_Handle] = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> _Handle:
        """Run *fn* after *delay_ms* of virtual time; returns a handle
        whose :meth:`_Handle.cancel` un-schedules it."""
        if delay_ms < 0:
            raise ValueError("cannot schedule into the past")
        handle = _Handle(self.now + delay_ms, self._seq, fn)
        self._seq += 1
        heapq.heappush(self._heap, handle)
        return handle

    def run(self, max_events: int = 50_000_000) -> int:
        """Process events until the heap drains; returns the count.

        ``max_events`` is a runaway guard for mis-written operation
        programs (e.g. a coroutine that respawns itself forever).
        """
        processed = 0
        while self._heap:
            handle = heapq.heappop(self._heap)
            if handle.fn is None:
                continue  # cancelled
            if handle.when < self.now:  # pragma: no cover - defensive
                raise RuntimeError("event heap produced a past event")
            self.now = handle.when
            fn, handle.fn = handle.fn, None
            fn()
            processed += 1
            if processed > max_events:
                raise RuntimeError(
                    f"event loop exceeded {max_events} events (runaway program?)"
                )
        self.events_processed += processed
        return processed


class PeerServer:
    """One peer's service queue: single server, FIFO, bounded backlog.

    ``service_time_ms`` is the time the peer spends processing one
    message (the inverse of its service rate); ``queue_depth`` bounds
    the backlog *including* the message in service.  A message arriving
    when the backlog is full is dropped — the sender only learns via
    its timeout, like a real overloaded peer shedding load.
    """

    __slots__ = (
        "peer_id",
        "service_time_ms",
        "queue_depth",
        "busy_until",
        "_finish_times",
        "arrivals",
        "served",
        "queue_drops",
        "busy_ms",
        "wait_ms",
        "max_depth",
    )

    def __init__(
        self, peer_id: int, service_time_ms: float, queue_depth: int
    ) -> None:
        if service_time_ms <= 0:
            raise ValueError("service_time_ms must be > 0")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.peer_id = peer_id
        self.service_time_ms = service_time_ms
        self.queue_depth = queue_depth
        self.busy_until = 0.0
        #: Outstanding finish times (min-heap) — its length *is* the
        #: current backlog once entries ≤ now are popped.
        self._finish_times: List[float] = []
        self.arrivals = 0
        self.served = 0
        self.queue_drops = 0
        self.busy_ms = 0.0
        self.wait_ms = 0.0
        self.max_depth = 0

    def depth(self, now: float) -> int:
        """Backlog at *now* (messages admitted but not yet finished)."""
        finish = self._finish_times
        while finish and finish[0] <= now:
            heapq.heappop(finish)
        return len(finish)

    def admit(self, now: float) -> Optional[Tuple[float, float]]:
        """Try to enqueue a message arriving at *now*.

        Returns ``(service_start, service_finish)`` when admitted, or
        ``None`` when the bounded queue overflowed (the drop is counted
        here; the sender finds out via its timeout).
        """
        self.arrivals += 1
        if self.depth(now) >= self.queue_depth:
            self.queue_drops += 1
            return None
        start = max(now, self.busy_until)
        finish = start + self.service_time_ms
        self.busy_until = finish
        heapq.heappush(self._finish_times, finish)
        depth = len(self._finish_times)
        if depth > self.max_depth:
            self.max_depth = depth
        self.served += 1
        self.busy_ms += self.service_time_ms
        self.wait_ms += start - now
        return start, finish

    def utilization(self, span_ms: float) -> float:
        """Fraction of *span_ms* this peer spent serving messages."""
        return min(1.0, self.busy_ms / span_ms) if span_ms > 0 else 0.0

    @property
    def mean_wait_ms(self) -> float:
        return self.wait_ms / self.served if self.served else 0.0


class Scheduler:
    """Runs operation coroutines concurrently over per-peer queues.

    Parameters
    ----------
    latency:
        Per-message-leg network latency sampler (``None`` → zero network
        latency, pure queueing).  Each message pays one sampled leg out
        and one back.
    policy:
        Timeout/retry/backoff semantics per message (defaults to a
        policy tuned for service-queue scales: short timeout, two
        retries).
    service_time_ms / queue_depth:
        Defaults for lazily created :class:`PeerServer` instances.
    slow_peers:
        Peer id → service-time multiplier for stragglers (a factor of
        8 means the peer serves messages 8× slower).
    seed:
        Seeds the scheduler's private RNG (latency samples, backoff
        jitter).  Same seed + same spawn sequence → identical runs.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        policy: Optional[DeliveryPolicy] = None,
        service_time_ms: float = 0.25,
        queue_depth: int = 64,
        slow_peers: Optional[Mapping[int, float]] = None,
        seed: int = 0,
    ) -> None:
        self.loop = EventLoop()
        self.latency = latency
        self.policy = (
            policy
            if policy is not None
            else DeliveryPolicy(
                timeout_ms=40.0,
                max_retries=2,
                backoff_base_ms=2.0,
                backoff_factor=2.0,
                jitter_ms=0.5,
            )
        )
        self.service_time_ms = service_time_ms
        self.queue_depth = queue_depth
        self.slow_peers: Dict[int, float] = dict(slow_peers or {})
        self.rng = random.Random(seed)
        self.servers: Dict[int, PeerServer] = {}
        self.ops: List[OpFuture] = []
        self.messages_sent = 0
        self.retries = 0
        self.timeouts = 0
        self._digest = sha256()

    # -- servers -----------------------------------------------------------

    def server(self, peer_id: int) -> PeerServer:
        """The (lazily created) service queue of peer *peer_id*."""
        server = self.servers.get(peer_id)
        if server is None:
            factor = self.slow_peers.get(peer_id, 1.0)
            server = PeerServer(
                peer_id,
                service_time_ms=self.service_time_ms * factor,
                queue_depth=self.queue_depth,
            )
            self.servers[peer_id] = server
        return server

    # -- fingerprint -------------------------------------------------------

    def _record(self, op_id: int, event: str, dst: int) -> None:
        self._digest.update(f"{self.loop.now!r}|{op_id}|{event}|{dst}\n".encode())

    def fingerprint(self) -> str:
        """Digest of the full event interleaving so far — two runs with
        the same seed and spawn sequence must produce the same value."""
        return self._digest.hexdigest()

    # -- spawning and stepping ---------------------------------------------

    def spawn(
        self,
        program: Generator,
        label: str = "op",
        delay_ms: float = 0.0,
    ) -> OpFuture:
        """Start running *program* (a generator coroutine yielding
        :class:`SendRequest` / :class:`Sleep`) after *delay_ms*; its
        ``return`` value lands on the returned :class:`OpFuture`."""
        op = OpFuture(len(self.ops), label, self.loop.now + delay_ms)
        self.ops.append(op)
        self._record(op.op_id, "spawn", -1)
        self.loop.schedule(delay_ms, lambda: self._step(op, program, None))
        return op

    def run(self, max_events: int = 50_000_000) -> int:
        """Drive the event loop until every operation has completed."""
        return self.loop.run(max_events=max_events)

    def _step(self, op: OpFuture, program: Generator, value: object) -> None:
        try:
            yielded = program.send(value)
        except StopIteration as stop:
            self._record(op.op_id, "complete", -1)
            op._complete(self.loop.now, stop.value)
            return
        if isinstance(yielded, Sleep):
            if yielded.delay_ms < 0:
                raise ValueError("Sleep.delay_ms must be >= 0")
            self.loop.schedule(
                yielded.delay_ms, lambda: self._step(op, program, None)
            )
        elif isinstance(yielded, SendRequest):
            future = MessageFuture(yielded.dst, yielded.kind, self.loop.now)
            self._attempt(op, program, future, attempt=0, base_ms=self.loop.now)
        else:
            raise TypeError(
                f"operation yielded {yielded!r}; expected SendRequest or Sleep"
            )

    # -- message delivery with timeout/retry races -------------------------

    def _attempt(
        self,
        op: OpFuture,
        program: Generator,
        future: MessageFuture,
        attempt: int,
        base_ms: float,
        last_failure: str = TIMED_OUT,
    ) -> None:
        """Run transmission *attempt* (0-based) of one message.

        Called at the virtual instant the attempt sequence continues
        (initial send, or the previous attempt's timeout).  The sampled
        backoff and outbound latency fix the arrival instant; the
        destination queue's state *at that instant* decides the rest.
        """
        policy = self.policy
        if attempt >= policy.max_attempts:
            receipt = ServiceReceipt(
                outcome=last_failure,
                attempts=attempt,
                latency_ms=self.loop.now - base_ms,
            )
            future.resolve(receipt)
            self._resolve(op, program, receipt)
            return
        if attempt > 0:
            self.retries += 1
        backoff = policy.backoff_before(attempt, self.rng)
        out_ms = self.latency.sample(self.rng) if self.latency is not None else 0.0
        self.messages_sent += 1
        self._record(op.op_id, "send", future.dst)
        send_ms = self.loop.now + backoff
        timeout_at = send_ms + policy.timeout_ms

        def arrive() -> None:
            self._arrive(
                op, program, future, attempt, base_ms, send_ms, timeout_at
            )

        self.loop.schedule(backoff + out_ms, arrive)
        if out_ms >= policy.timeout_ms:
            # The request cannot possibly answer in time: the sender
            # times out on its own schedule while the message is still
            # in flight (it will still consume service at the
            # destination — duplicate demand, as in a real race).
            self.timeouts += 1
            self.loop.schedule(
                (timeout_at - self.loop.now),
                lambda: self._attempt(
                    op, program, future, attempt + 1, base_ms, TIMED_OUT
                ),
            )

    def _arrive(
        self,
        op: OpFuture,
        program: Generator,
        future: MessageFuture,
        attempt: int,
        base_ms: float,
        send_ms: float,
        timeout_at: float,
    ) -> None:
        """The message reaches its destination queue."""
        now = self.loop.now
        if now - send_ms >= self.policy.timeout_ms:
            # Outbound leg alone blew the timeout; the sender's retry is
            # already scheduled (see _attempt).  The late arrival still
            # demands service — model the duplicate work.
            self._record(op.op_id, "late", future.dst)
            self.server(future.dst).admit(now)
            return
        server = self.server(future.dst)
        admitted = server.admit(now)
        if admitted is None:
            # Queue overflow: silent drop; sender resumes at timeout.
            self._record(op.op_id, "drop", future.dst)
            self.timeouts += 1
            self.loop.schedule(
                timeout_at - now,
                lambda: self._attempt(
                    op, program, future, attempt + 1, base_ms, QUEUE_DROP
                ),
            )
            return
        start, finish = admitted
        self._record(op.op_id, "serve", future.dst)
        back_ms = self.latency.sample(self.rng) if self.latency is not None else 0.0
        reply_at = finish + back_ms
        if reply_at <= timeout_at:
            receipt = ServiceReceipt(
                outcome=SERVED,
                attempts=attempt + 1,
                latency_ms=reply_at - base_ms,
                wait_ms=start - now,
                service_ms=server.service_time_ms,
            )

            def deliver() -> None:
                future.resolve(receipt)
                self._resolve(op, program, receipt)

            self.loop.schedule(reply_at - now, deliver)
        else:
            # Served, but the reply loses the race against the sender's
            # timeout: the work was wasted and the sender retries.
            self._record(op.op_id, "timeout", future.dst)
            self.timeouts += 1
            self.loop.schedule(
                timeout_at - now,
                lambda: self._attempt(
                    op, program, future, attempt + 1, base_ms, TIMED_OUT
                ),
            )

    def _resolve(
        self, op: OpFuture, program: Generator, receipt: ServiceReceipt
    ) -> None:
        op.receipts.append(receipt)
        self._record(op.op_id, "resume", -1)
        self._step(op, program, receipt)

    # -- rollups -----------------------------------------------------------

    @property
    def queue_drops(self) -> int:
        return sum(s.queue_drops for s in self.servers.values())

    def latencies(self) -> List[float]:
        """Per-operation completion latencies (completed ops only)."""
        return [op.latency_ms for op in self.ops if op.done]

    def stats(self) -> Dict[str, float]:
        """Deterministic scheduler-level rollup for reports."""
        span = self.loop.now
        servers = list(self.servers.values())
        utils = [s.utilization(span) for s in servers] if servers else [0.0]
        waits = sum(s.wait_ms for s in servers)
        served = sum(s.served for s in servers)
        return {
            "ops_submitted": len(self.ops),
            "ops_completed": sum(1 for op in self.ops if op.done),
            "messages_sent": self.messages_sent,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "queue_drops": self.queue_drops,
            "max_queue_depth": max((s.max_depth for s in servers), default=0),
            "mean_wait_ms": round(waits / served, 4) if served else 0.0,
            "utilization_mean": round(sum(utils) / len(utils), 4),
            "utilization_max": round(max(utils), 4),
            "makespan_ms": round(span, 4),
        }


def replay_timeline(
    timeline: Iterable[Tuple[str, int]],
) -> Generator[SendRequest, ServiceReceipt, List[ServiceReceipt]]:
    """An operation program that replays a captured message timeline.

    *timeline* is a sequence of ``(kind, dst)`` pairs — exactly what
    :meth:`~repro.dht.ring.ChordRing.capture_messages` records from the
    synchronous execution of one SPRITE operation.  Messages are sent
    strictly one after another (each waits for the previous receipt),
    mirroring the nested call chain they were captured from; the
    scheduler overlaps *different* operations' messages on the shared
    per-peer queues.
    """
    receipts: List[ServiceReceipt] = []
    for kind, dst in timeline:
        receipt = yield SendRequest(dst=dst, kind=kind)
        receipts.append(receipt)
    return receipts
