"""ReCord-style recursive routing ring with tunable branching factor.

ReCord (PAPERS.md) generalizes Chord into a *recursive* distributed
hash table: level ``ℓ`` of the structure is a ring whose neighbours sit
``b**ℓ`` identifier positions apart, and every node participates in all
``log_b 2^m`` levels.  Flattened onto a per-node routing table, the
recursion materializes as ``b - 1`` fingers per level at the clockwise
distances ``j · b**ℓ`` (``j ∈ [1, b)``) — see
:func:`~repro.dht.hashing.recursive_finger_steps`.  Greedy routing over
that table resolves one base-``b`` digit of the remaining clockwise
distance per hop, for ``O(log_b n)`` expected hops against Chord's
``O(log₂ n)``; the price is a wider table (``(b-1)·log_b 2^m`` entries
versus ``m``) and proportionally more maintenance writes, which is
exactly the trade the route bench (``perf --mode route``) measures.

:class:`RecordRing` subclasses :class:`~repro.dht.ChordRing` and
overrides *only* the finger schedule.  Everything else — iterative
lookups, successor lists, incremental repair arcs, route caching,
transport accounting, key migration — is inherited unchanged, because
none of it depends on the spacing of the finger distances: the repair
arcs are ``(pred - s, new - s]`` for each schedule step ``s``, and
:meth:`~repro.dht.node.ChordNode.closest_preceding_finger` bisects the
schedule itself — it needs the steps sorted ascending and every table
entry to be the node itself or at clockwise distance at least its step,
which the rebuild and both repairs guarantee for any schedule, so a hop
costs the same on this wider table as on Chord's.  ``arity=2`` yields
exactly Chord's ``2^i`` schedule, so the degenerate ring is
bit-identical to :class:`ChordRing` — a property the test-suite pins.

Crucially, the arity changes *where lookup messages go, never what is
returned*: key ownership is the successor relation over the same
membership, so rankings and write-state fingerprints are bit-identical
across ring kinds given the same seed and workload (the differential
oracle's eighth comparison).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import ChordConfig
from ..net import Transport
from .hashing import recursive_finger_steps
from .ring import ChordRing


class RecordRing(ChordRing):
    """A ReCord ring: :class:`ChordRing` with a base-``arity`` finger
    schedule.

    Parameters are those of :class:`ChordRing` plus ``arity`` — the
    branching factor ``b`` of the recursive structure.  ``arity=2``
    degenerates to Chord exactly; higher arities shorten routes at the
    cost of a wider finger table.
    """

    def __init__(
        self,
        config: ChordConfig | None = None,
        node_ids: Optional[List[int]] = None,
        transport: Transport | None = None,
        arity: int = 2,
    ) -> None:
        if arity < 2:
            raise ValueError("ring arity must be >= 2")
        self.arity = arity
        super().__init__(config, node_ids=node_ids, transport=transport)

    def _finger_schedule(self) -> Tuple[int, ...]:
        return recursive_finger_steps(self.space.bits, self.arity)


def build_ring(
    kind: str,
    config: ChordConfig | None = None,
    *,
    arity: int = 2,
    node_ids: Optional[List[int]] = None,
    transport: Transport | None = None,
) -> ChordRing:
    """Construct a ring of the requested kind (``"chord"`` or
    ``"record"``) — the single selection point the system wiring, CLI,
    oracle, and benches all funnel through.

    ``arity`` only applies to ``"record"`` rings; passing a non-default
    arity with ``"chord"`` is rejected rather than silently ignored, so
    a sweep configuration can never mislabel its columns.
    """
    if kind == "chord":
        if arity != 2:
            raise ValueError("ring arity only applies to ring='record'")
        return ChordRing(config, node_ids=node_ids, transport=transport)
    if kind == "record":
        return RecordRing(
            config, node_ids=node_ids, transport=transport, arity=arity
        )
    raise ValueError(f"unknown ring kind: {kind!r}")
