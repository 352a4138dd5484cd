"""Test-side reference for finger selection: the linear scan.

:meth:`ChordRing.lookup` in ``src`` bisects the finger schedule and
probes each hop's table from there.  The function here is what it
replaced and must keep agreeing with: walk the whole table from the far
end, skip self entries and unusable nodes, and return the first finger
strictly inside ``(self, key)`` — built only on
:meth:`IdSpace.in_interval`, knowing nothing about the schedule.  The
reference router (``reference_router.py``) takes every routed hop from
it.
"""

from __future__ import annotations

from typing import Callable

from repro.dht.node import ChordNode


def linear_closest_preceding_finger(
    node: ChordNode, key: int, is_usable: Callable[[int], bool]
) -> int:
    """Far-to-near scan over every finger of *node*: the farthest usable
    finger strictly inside ``(node, key)``, or the node's own id when no
    finger helps."""
    for finger in reversed(node.fingers):
        if finger == node.node_id:
            continue
        if not is_usable(finger):
            continue
        if node.space.in_interval(finger, node.node_id, key, inclusive_right=False):
            return finger
    return node.node_id
