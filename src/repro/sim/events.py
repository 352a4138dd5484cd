"""The scenario DSL: declarative event schedules for the simulator.

A scenario is a seed plus an ordered list of :class:`SimEvent`s —
membership churn (``join``, ``leave``, ``crash``), network faults
(``blackout``), workload (``publish``, ``query``, ``learn``), protocol
maintenance (``stabilize``, ``replicate``, ``recover``, ``maintain``),
and the adversarial catalogue's stress events (``flash_crowd``,
``storm``, ``region_fail``, ``turnover``, ``behave``, ``measure`` —
DESIGN.md §14).  The :class:`~repro.sim.engine.ScenarioEngine` executes a
scenario deterministically against a running system, checking invariants
between events, so a failing schedule is a *reproducible artifact*: its
seed and flags regenerate it bit for bit, and it replays as a regression
test.

:func:`random_scenario` generates seeded schedules for fuzzing: a
publish burst up front (an empty index exercises nothing), a churn/
workload body, and a healing suffix so the schedule ends in a state the
quiescent-tier invariants apply to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Every event kind a scenario may contain.
EVENT_KINDS: Tuple[str, ...] = (
    "join",        # a new peer joins the ring
    "leave",       # a random peer departs gracefully
    "crash",       # a random peer crash-stops (no handover, no repair)
    "blackout",    # a random peer's network goes dark for duration_ms
    "publish",     # share the next `count` unshared corpus documents
    "query",       # execute `count` queries from the workload pool
    "learn",       # one learning iteration at a random live owner
    "stabilize",   # converge routing state
    "replicate",   # one successor-replication round
    "recover",     # stabilize + promote replicas
    "maintain",    # one owner-probe + reconciliation round
    "snapshot",    # checkpoint every slot-holding peer's disk store
    "crash_disk",  # crash-stop a peer whose disk (snapshots) survives
    "recover_disk",  # rejoin the crashed peer: snapshot reload + delta sync
    # -- adversarial catalogue (DESIGN.md §14) -----------------------------
    "flash_crowd",  # `count` queries concentrated on one topic's hot pool
    "storm",       # `count` repeats of ONE query (name pins the query id)
    "region_fail",  # crash-stop `count` *contiguous* live peers at once
    "turnover",    # edit + re-share `count` shared docs (batched republish)
    "behave",      # apply a behavior spec (name: classes:E/freeride:F/flaky:F:P)
    "measure",     # quality probe vs the centralized oracle (name = label)
)

#: Events that repair damage; random scenarios append these after
#: destructive events and as a closing suffix.
HEAL_SEQUENCE: Tuple[str, ...] = ("stabilize", "recover", "maintain")

#: The shortest random schedule: one publish, then replicate and heal.
MIN_RANDOM_EVENTS = len(HEAL_SEQUENCE) + 2


@dataclass(frozen=True)
class SimEvent:
    """One step of a scenario schedule.

    ``count`` multiplies workload events (publish N documents, run N
    queries); ``duration_ms`` scopes blackouts; ``name`` pins the
    identity of a joining peer so schedules replay byte-identically.
    """

    kind: str
    name: Optional[str] = None
    count: int = 1
    duration_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind: {self.kind!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.duration_ms < 0:
            raise ValueError("duration_ms must be >= 0")
        if self.kind == "behave" and not self.name:
            raise ValueError("behave events need a spec in `name`")


@dataclass(frozen=True)
class Scenario:
    """A seed plus an event schedule — the unit of replay."""

    seed: int
    events: Tuple[SimEvent, ...]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def random_scenario(
    seed: int,
    num_events: int = 100,
    churn_weight: float = 0.25,
    blackout_ms: float = 300.0,
    with_store: bool = False,
) -> Scenario:
    """A seeded random schedule of exactly *num_events* events.

    Structure: a publish burst up front seeds the index; the body mixes
    churn, faults, workload, and maintenance with churn probability
    *churn_weight*; destructive events are usually (not always — the
    interesting interleavings are the unhealed ones) followed by a heal
    step; the schedule closes with replication plus the full heal
    sequence so the final state is quiescent and every quiescent-tier
    invariant must hold.

    ``with_store=True`` additionally mixes the durable-store events —
    ``snapshot``, ``crash_disk``, ``recover_disk`` — into the pools (a
    ``crash_disk`` is always followed by a ``recover_disk`` before the
    heal steps, so the schedule exercises the snapshot reload path).
    The default keeps the historical event stream byte-identical for a
    given seed.
    """
    if num_events < MIN_RANDOM_EVENTS:
        raise ValueError(f"num_events must be >= {MIN_RANDOM_EVENTS}")
    rng = random.Random(seed)
    events: List[SimEvent] = []

    suffix = [SimEvent("replicate")] + [SimEvent(k) for k in HEAL_SEQUENCE]
    body_budget = num_events - len(suffix)

    # Publish burst: seed the index before anything else happens.
    burst = max(1, min(body_budget // 5, 6))
    for __ in range(burst):
        if len(events) >= body_budget:
            break
        events.append(SimEvent("publish", count=rng.randint(2, 5)))

    destructive = ("crash", "leave", "blackout")
    workload = ("publish", "query", "query", "learn")
    upkeep = ("stabilize", "replicate", "recover", "maintain")
    if with_store:
        destructive = destructive + ("crash_disk",)
        upkeep = upkeep + ("snapshot",)
    joins = 0
    while len(events) < body_budget:
        roll = rng.random()
        if roll < churn_weight:
            kind = rng.choice(destructive + ("join",))
        elif roll < churn_weight + 0.45:
            kind = rng.choice(workload)
        else:
            kind = rng.choice(upkeep)

        if kind == "join":
            joins += 1
            events.append(SimEvent("join", name=f"rand-{seed}-{joins}"))
        elif kind == "blackout":
            events.append(
                SimEvent("blackout", duration_ms=rng.uniform(0.5, 1.0) * blackout_ms)
            )
        elif kind in ("publish", "query"):
            events.append(SimEvent(kind, count=rng.randint(1, 3)))
        else:
            events.append(SimEvent(kind))

        if kind == "crash_disk" and len(events) < body_budget:
            # The disk survives; bring the peer back through the
            # snapshot path before routing repair runs.
            events.append(SimEvent("recover_disk"))
        if kind in destructive and rng.random() < 0.6:
            for heal in HEAL_SEQUENCE:
                if len(events) >= body_budget:
                    break
                events.append(SimEvent(heal))

    events.extend(suffix)
    assert len(events) == num_events
    return Scenario(
        seed=seed,
        events=tuple(events),
        description=f"random schedule (seed={seed}, events={num_events})",
    )
