"""Adversarial concurrency scenarios for the event-driven runtime.

The scenario catalogue (:mod:`repro.sim.catalogue`) stresses the
*retrieval* system; this module stresses the *runtime* itself with the
two failure shapes DESIGN.md §15 models explicitly, each checked
against an invariant list the way the engine checks its catalogue:

* :func:`thundering_herd` — a large client population fires at a tiny
  set of peers in the same virtual instant.  The bounded queues must
  shed the excess (backpressure engaged, queue bound never exceeded),
  every operation must still terminate with exactly one receipt per
  send, and the whole run must replay bit-identically from its seed.

* :func:`slow_peer_stall` — one peer of a mixed population serves far
  slower than the rest.  The stall must stay *localized*: operations
  that never touch the slow peer keep fast-path latencies, operations
  that do absorb the extra service time (and possibly timeout/retry
  races), and nothing deadlocks.

Both scenarios run their schedule twice and require identical
fingerprints — the determinism contract is itself an invariant here,
not just a test-suite property.

A test helper, not part of ``repro``: no CLI, benchmark or example
runs these scenarios — only ``test_concurrency.py`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.net.sched import (
    QUEUE_DROP,
    SERVED,
    Scheduler,
    replay_timeline,
)
from repro.net.transport import DeliveryPolicy


@dataclass
class ConcurrencyScenarioReport:
    """Outcome of one runtime stress scenario."""

    name: str
    ops: int = 0
    served: int = 0
    failed: int = 0
    queue_drops: int = 0
    retries: int = 0
    timeouts: int = 0
    max_queue_depth: int = 0
    makespan_ms: float = 0.0
    fingerprint: str = ""
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.violations)} violations"
        return (
            f"concurrency[{self.name}]: {self.ops} ops, "
            f"{self.served} served / {self.failed} failed sends, "
            f"{self.queue_drops} drops, {verdict}"
        )


def _check_common_invariants(
    report: ConcurrencyScenarioReport,
    sched: Scheduler,
    expected_ops: int,
) -> None:
    """Invariants every runtime scenario must uphold."""
    # Op conservation: everything spawned terminates (no deadlock, no
    # lost continuation), with exactly one terminal receipt per send.
    stats = sched.stats()
    if stats["ops_completed"] != expected_ops:
        report.violations.append(
            f"op conservation: {stats['ops_completed']}/{expected_ops} "
            "operations completed"
        )
    for op in sched.ops:
        if not op.done:
            continue
        receipts = op.receipts
        if any(r.attempts < 1 for r in receipts):
            report.violations.append(
                f"receipt accounting: op {op.op_id} has a zero-attempt receipt"
            )
    # The bounded queue is a hard bound — including the in-service slot.
    for server in sched.servers.values():
        if server.max_depth > server.queue_depth:
            report.violations.append(
                f"queue bound: peer {server.peer_id} reached depth "
                f"{server.max_depth} > {server.queue_depth}"
            )
        if server.served + server.queue_drops != server.arrivals:
            report.violations.append(
                f"arrival accounting: peer {server.peer_id} "
                f"served {server.served} + dropped {server.queue_drops} "
                f"!= arrivals {server.arrivals}"
            )


def _fill_report(
    report: ConcurrencyScenarioReport, sched: Scheduler
) -> ConcurrencyScenarioReport:
    stats = sched.stats()
    receipts = [r for op in sched.ops for r in op.receipts]
    report.ops = len(sched.ops)
    report.served = sum(1 for r in receipts if r.outcome == SERVED)
    report.failed = sum(1 for r in receipts if r.outcome != SERVED)
    report.queue_drops = int(stats["queue_drops"])
    report.retries = int(stats["retries"])
    report.timeouts = int(stats["timeouts"])
    report.max_queue_depth = int(stats["max_queue_depth"])
    report.makespan_ms = stats["makespan_ms"]
    report.fingerprint = sched.fingerprint()
    return report


def thundering_herd(
    num_clients: int = 200,
    num_targets: int = 2,
    queue_depth: int = 8,
    service_time_ms: float = 1.0,
    timeout_ms: float = 12.0,
    seed: int = 0,
) -> ConcurrencyScenarioReport:
    """Every client hits the same tiny peer set in the same instant.

    With ``num_clients`` far above ``num_targets × queue_depth``, the
    bounded queues *must* shed load: the scenario requires backpressure
    to engage (queue drops observed, some operations failing with
    :data:`~repro.net.sched.QUEUE_DROP`) while the queue bound holds
    and every operation still terminates.
    """

    def run() -> Scheduler:
        sched = Scheduler(
            policy=DeliveryPolicy(
                timeout_ms=timeout_ms,
                max_retries=2,
                backoff_base_ms=1.0,
                backoff_factor=2.0,
                jitter_ms=0.5,
            ),
            service_time_ms=service_time_ms,
            queue_depth=queue_depth,
            seed=seed,
        )
        for client in range(num_clients):
            target = client % num_targets
            sched.spawn(
                replay_timeline([("search_term", target)]),
                label=f"herd:{client}",
            )
        sched.run()
        return sched

    report = ConcurrencyScenarioReport(name="thundering-herd")
    sched = run()
    _fill_report(report, sched)
    _check_common_invariants(report, sched, expected_ops=num_clients)

    if num_clients > num_targets * queue_depth:
        if report.queue_drops == 0:
            report.violations.append(
                "backpressure: the herd never overflowed a bounded queue"
            )
        drop_outcomes = sum(
            1
            for op in sched.ops
            for r in op.receipts
            if r.outcome == QUEUE_DROP
        )
        if drop_outcomes == 0:
            report.violations.append(
                "backpressure: no operation observed a QUEUE_DROP receipt"
            )
    # Determinism is an invariant, not just a test: replay the schedule.
    if run().fingerprint() != report.fingerprint:
        report.violations.append(
            "determinism: two same-seed runs produced different fingerprints"
        )
    return report


def slow_peer_stall(
    num_ops: int = 120,
    num_peers: int = 12,
    slow_peer: int = 0,
    slow_factor: float = 50.0,
    service_time_ms: float = 0.5,
    timeout_ms: float = 200.0,
    messages_per_op: int = 3,
    seed: int = 0,
) -> ConcurrencyScenarioReport:
    """A mixed workload where one peer serves ``slow_factor`` slower.

    Operations are spread round-robin: most never touch the slow peer,
    a deterministic minority does.  The stall must stay localized —
    the fast population's completion latency stays below the slow
    peer's single service time, while every op that touched the slow
    peer pays at least one slow service — and nothing deadlocks.
    """

    def touches_slow(op_index: int) -> bool:
        return any(
            (op_index + m) % num_peers == slow_peer
            for m in range(messages_per_op)
        )

    def run() -> Scheduler:
        sched = Scheduler(
            policy=DeliveryPolicy(
                timeout_ms=timeout_ms,
                max_retries=2,
                backoff_base_ms=1.0,
                backoff_factor=2.0,
                jitter_ms=0.5,
            ),
            service_time_ms=service_time_ms,
            queue_depth=64,
            slow_peers={slow_peer: slow_factor},
            seed=seed,
        )
        for i in range(num_ops):
            timeline = [
                ("search_term", (i + m) % num_peers)
                for m in range(messages_per_op)
            ]
            sched.spawn(replay_timeline(timeline), label=f"op:{i}")
        sched.run()
        return sched

    report = ConcurrencyScenarioReport(name="slow-peer-stall")
    sched = run()
    _fill_report(report, sched)
    _check_common_invariants(report, sched, expected_ops=num_ops)

    slow_service = service_time_ms * slow_factor
    fast_latencies: List[float] = []
    slow_latencies: List[float] = []
    for i, op in enumerate(sched.ops):
        (slow_latencies if touches_slow(i) else fast_latencies).append(
            op.latency_ms
        )
    if not fast_latencies or not slow_latencies:
        report.violations.append(
            "workload shape: both fast and slow populations must be non-empty"
        )
    else:
        leaked = [lat for lat in fast_latencies if lat >= slow_service]
        if leaked:
            report.violations.append(
                f"stall localization: {len(leaked)} fast-path ops waited "
                f">= one slow service time ({slow_service}ms)"
            )
        stalled = [lat for lat in slow_latencies if lat < slow_service]
        if stalled:
            report.violations.append(
                f"stall accounting: {len(stalled)} slow-path ops finished "
                "faster than a single slow service"
            )
        if max(fast_latencies) >= min(slow_latencies):
            report.violations.append(
                "stall separation: fast and slow latency populations overlap"
            )
    if run().fingerprint() != report.fingerprint:
        report.violations.append(
            "determinism: two same-seed runs produced different fingerprints"
        )
    return report


def run_runtime_scenarios(
    seed: int = 0,
) -> Dict[str, ConcurrencyScenarioReport]:
    """Both runtime stress scenarios, keyed by name."""
    reports = [thundering_herd(seed=seed), slow_peer_stall(seed=seed)]
    return {r.name: r for r in reports}
