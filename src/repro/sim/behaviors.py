"""Peer behavior plans: heterogeneous capacity and adversarial peers.

Production DHT populations are not uniform — the BitTorrent-DHT
measurement literature (PAPERS.md) finds a small core of fast, reliable
peers carrying a long tail of slow, lossy, and outright free-riding
ones.  This module models that population as a :class:`BehaviorPlan`:

* **capacity classes** — each peer is assigned one of
  :data:`PEER_CLASSES` with Zipf-skewed membership
  (:func:`assign_peer_classes`); a class carries a latency multiplier
  and an extra drop probability, wired into the transport through
  :meth:`~repro.net.faults.FaultInjector.mark_slow` /
  :meth:`~repro.net.faults.FaultInjector.mark_flaky`;
* **free-riders** — peers that consume retrieval but contribute no
  learning fuel: queries they issue are executed with ``cache=False``,
  so they are never registered at indexing peers and SPRITE's §3
  query-driven index refinement starves in proportion to the free-rider
  fraction;
* **flaky responders** — peers whose messages (sent *and* received) are
  dropped with an extra per-attempt probability on top of the global
  loss rate.

Plans are applied by the engine's ``behave`` event from a compact spec
string (``classes:EXP`` / ``freeride:FRACTION`` / ``flaky:FRACTION:P``),
so a scenario's seed and spec replay the exact same population.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..corpus.sampling import CategoricalSampler, zipf_weights
from ..net.faults import FaultInjector


@dataclass(frozen=True)
class PeerClass:
    """One capacity/latency class a peer can belong to."""

    name: str
    latency_factor: float = 1.0
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")


#: The default population, in Zipf rank order: a well-provisioned
#: backbone core, a broadband middle, and a slow lossy mobile tail.
PEER_CLASSES: Tuple[PeerClass, ...] = (
    PeerClass("backbone", latency_factor=1.0, drop_probability=0.0),
    PeerClass("broadband", latency_factor=3.0, drop_probability=0.02),
    PeerClass("mobile", latency_factor=8.0, drop_probability=0.10),
)


@dataclass
class BehaviorPlan:
    """The resolved per-peer behavior assignments of one scenario run."""

    #: node id → class name (only peers with a non-default class).
    classes: Dict[int, str] = field(default_factory=dict)
    free_riders: FrozenSet[int] = frozenset()
    #: node id → extra per-attempt drop probability.
    flaky: Dict[int, float] = field(default_factory=dict)

    def is_free_rider(self, node_id: int) -> bool:
        return node_id in self.free_riders


def assign_peer_classes(
    node_ids: Sequence[int],
    rng: random.Random,
    exponent: float = 1.0,
    classes: Sequence[PeerClass] = PEER_CLASSES,
    faults: FaultInjector | None = None,
) -> Dict[int, str]:
    """Assign every peer a class, membership Zipf-skewed by rank.

    With ``exponent=0`` the classes are uniform; larger exponents
    concentrate the population in the rank-1 class (the backbone core
    in the default catalogue — invert the class order to model a
    tail-heavy swarm).  When *faults* is given, each assignment is
    applied immediately: ``mark_slow`` for latency factors above 1,
    ``mark_flaky`` for drop probabilities above 0.
    """
    if not classes:
        raise ValueError("need at least one peer class")
    sampler = CategoricalSampler(
        list(classes), zipf_weights(len(classes), exponent)
    )
    by_name = {cls.name: cls for cls in classes}
    assignment: Dict[int, str] = {}
    for node_id in node_ids:
        chosen = sampler.sample(rng)
        assignment[node_id] = chosen.name
        if faults is not None:
            cls = by_name[chosen.name]
            if cls.latency_factor > 1.0:
                faults.mark_slow(node_id, cls.latency_factor)
            if cls.drop_probability > 0.0:
                faults.mark_flaky(node_id, cls.drop_probability)
    return assignment


def choose_fraction(
    node_ids: Sequence[int], rng: random.Random, fraction: float
) -> List[int]:
    """A deterministic sample of ``round(len × fraction)`` peers."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    count = min(len(node_ids), round(len(node_ids) * fraction))
    return sorted(rng.sample(list(node_ids), count))


def parse_behavior_spec(spec: str) -> Tuple[str, Tuple[float, ...]]:
    """Parse a ``behave`` event's spec string.

    ``classes:EXP`` / ``freeride:FRACTION`` / ``flaky:FRACTION:P`` →
    (kind, numeric parameters).  Raises ``ValueError`` on anything else,
    so a malformed scenario fails loudly instead of silently no-opping.
    """
    parts = spec.split(":")
    kind, raw_params = parts[0], parts[1:]
    expected = {"classes": 1, "freeride": 1, "flaky": 2}
    if kind not in expected:
        raise ValueError(f"unknown behavior spec: {spec!r}")
    if len(raw_params) != expected[kind]:
        raise ValueError(
            f"behavior spec {spec!r} needs {expected[kind]} parameter(s)"
        )
    try:
        params = tuple(float(p) for p in raw_params)
    except ValueError:
        raise ValueError(f"non-numeric parameter in behavior spec {spec!r}")
    return kind, params


def apply_behavior_spec(
    plan: BehaviorPlan,
    spec: str,
    node_ids: Sequence[int],
    rng: random.Random,
    faults: FaultInjector | None,
) -> bool:
    """Apply one spec string to *plan* (and *faults* where required).

    Returns ``False`` when the spec needs fault injection but the
    transport has none (the perfect transport cannot be slow or flaky)
    — the engine reports the event as skipped.
    """
    kind, params = parse_behavior_spec(spec)
    if kind == "freeride":
        chosen = choose_fraction(node_ids, rng, params[0])
        plan.free_riders = plan.free_riders | frozenset(chosen)
        return True
    if faults is None:
        return False
    if kind == "classes":
        plan.classes.update(
            assign_peer_classes(node_ids, rng, exponent=params[0], faults=faults)
        )
        plan.flaky = faults.flaky_nodes
        return True
    # kind == "flaky"
    fraction, probability = params
    if not 0.0 <= probability <= 1.0:
        raise ValueError("flaky probability must be in [0, 1]")
    for node_id in choose_fraction(node_ids, rng, fraction):
        faults.mark_flaky(node_id, probability)
        plan.flaky[node_id] = probability
    return True
