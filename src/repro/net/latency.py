"""Per-message latency models.

A latency model answers one question: how many simulated milliseconds
does one transmission attempt take?  Two models are provided:

* :class:`ConstantLatency` — every attempt takes the same time (useful
  for analytic checks: end-to-end latency = messages × constant).
* :class:`LogNormalLatency` — heavy-tailed, parameterized by *median*
  and shape ``sigma``.  Internet host-pair RTT distributions measured by
  the King dataset (Gummadi et al., IMC'02) are well approximated by a
  log-normal body with a long tail, which is why DHT evaluations
  traditionally use it; the defaults (60 ms median, sigma 0.55) are a
  fit in that spirit.

Models draw exclusively from the ``random.Random`` instance handed to
``sample`` — they hold no RNG state of their own — so the transport that
owns the RNG fully determines the run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol, runtime_checkable


@runtime_checkable
class LatencyModel(Protocol):
    """One-way transmission delay sampler (simulated milliseconds)."""

    def sample(self, rng: random.Random) -> float:
        """Draw the latency of a single transmission attempt."""
        ...


@dataclass(frozen=True)
class ConstantLatency:
    """Every attempt takes exactly ``ms`` milliseconds."""

    ms: float = 50.0

    def __post_init__(self) -> None:
        if self.ms < 0:
            raise ValueError("latency must be >= 0")

    def sample(self, rng: random.Random) -> float:
        return self.ms


@dataclass(frozen=True)
class LogNormalLatency:
    """Log-normal latency: ``median_ms × exp(sigma·Z)`` with Z ~ N(0,1).

    The median (not the mean) parameterizes the distribution because it
    is the robust location statistic latency studies report; ``sigma``
    controls tail weight (0 degenerates to the constant model).
    """

    median_ms: float = 60.0
    sigma: float = 0.55

    def __post_init__(self) -> None:
        if self.median_ms <= 0:
            raise ValueError("median_ms must be > 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def sample(self, rng: random.Random) -> float:
        return self.median_ms * math.exp(self.sigma * rng.gauss(0.0, 1.0))
