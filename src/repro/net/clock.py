"""The simulated network clock.

The transport layer accounts for time in *simulated milliseconds*: every
delivery advances the clock by the latency the latency model sampled
(plus timeout and backoff time spent on failed attempts).  The clock is
sequential — deliveries are accounted one after another, so a reading is
"total network time spent so far", which is exactly what the end-to-end
query-latency reports need.  No wall-clock source is ever consulted, so
runs are reproducible bit-for-bit from the transport seed.
"""

from __future__ import annotations


class SimulatedClock:
    """A monotonically non-decreasing counter of simulated milliseconds."""

    def __init__(self, start_ms: float = 0.0) -> None:
        if start_ms < 0:
            raise ValueError("start_ms must be >= 0")
        self._now = float(start_ms)

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    def advance(self, delta_ms: float) -> float:
        """Move time forward by *delta_ms*; returns the new reading."""
        if delta_ms < 0:
            raise ValueError("the simulated clock cannot run backwards")
        self._now += delta_ms
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedClock(now={self._now:.3f}ms)"
