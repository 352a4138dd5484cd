"""Test-side full-rebuild reference ring.

The ring in ``src`` repairs a single join or graceful leave
incrementally whenever its tables were converged.  The class here
never does, at any finger arity: every membership event falls through to
:meth:`ChordRing.stabilize`'s full rebuild, the brute-force routing
state the incremental repair must reproduce entry for entry.
"""

from __future__ import annotations

from repro.dht import ChordRing


class FullRebuildChordRing(ChordRing):
    """A :class:`ChordRing` that rebuilds every table on every event."""

    def _can_repair_incrementally(self, was_converged: bool) -> bool:
        return False
