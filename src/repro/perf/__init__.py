"""repro.perf — the hot-path optimization layer (DESIGN.md §8) and the
harnesses the repo's benchmark does not cover.

* :mod:`repro.perf.profile` — opt-in wall-clock timers and event
  counters (``PROFILE``) that the simulator's hot paths report into;
* :mod:`repro.perf.route_cache` — the epoch-validated per-node route
  cache :class:`ChordRing` consults before multi-hop routing;
* :mod:`repro.perf.scale` — the DESIGN.md §13 scale-out harness:
  process-sharded build/publish/query phases over a streamed corpus,
  behind ``benchmarks/test_bench_scale.py`` and ``perf --mode scale``;
* :mod:`repro.perf.concurrency` — the DESIGN.md §15 event-driven
  closed/open-loop tail-latency grid, behind
  ``benchmarks/test_bench_concurrency.py`` and
  ``perf --mode concurrency``;
* :mod:`repro.perf.route` — the DESIGN.md §16 routing sweep: the
  ring × arity × peers hop-count grid behind
  ``benchmarks/test_bench_route.py`` and ``perf --mode route``.

Query, ingest, learning, churn and durable-store performance is
measured by ``python3 -m bench`` (``bench/``, BENCHMARK.json), not here.

``scale``, ``concurrency`` and ``route`` are deliberately *not*
imported here: they build rings and query processors, and the ring
itself imports this package for ``PROFILE`` / ``RouteCache`` — import
them explicitly as ``repro.perf.scale`` / ``repro.perf.concurrency`` /
``repro.perf.route``.
"""

from .profile import PROFILE, PerfProfile, memory_usage
from .route_cache import RouteCache

__all__ = [
    "PROFILE",
    "PerfProfile",
    "RouteCache",
    "memory_usage",
]
