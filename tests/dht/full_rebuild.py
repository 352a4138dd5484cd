"""Test-side full-rebuild reference rings.

The rings in ``src`` repair a single join or graceful leave
incrementally whenever their tables were converged.  The classes here
never do: every membership event falls through to
:meth:`ChordRing.stabilize`'s full rebuild, the brute-force routing
state the incremental repair must reproduce entry for entry.
"""

from __future__ import annotations

from repro.dht import ChordRing, RecordRing


class _FullRebuild:
    def _can_repair_incrementally(self, was_converged: bool) -> bool:
        return False


class FullRebuildChordRing(_FullRebuild, ChordRing):
    """A :class:`ChordRing` that rebuilds every table on every event."""


class FullRebuildRecordRing(_FullRebuild, RecordRing):
    """A :class:`RecordRing` that rebuilds every table on every event."""
