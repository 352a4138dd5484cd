"""repro.perf — the hot-path optimization layer (DESIGN.md §8).

Three cooperating pieces:

* :mod:`repro.perf.profile` — opt-in wall-clock timers and event
  counters (``PROFILE``) that the simulator's hot paths report into;
* :mod:`repro.perf.route_cache` — the epoch-validated per-node route
  cache :class:`ChordRing` consults before multi-hop routing;
* :mod:`repro.perf.bench` — the tracked end-to-end workload
  (publish + Zipf query stream + churn) behind
  ``benchmarks/test_bench_perf.py`` and the ``perf`` CLI subcommand;
* :mod:`repro.perf.topk` — the ISSUE 4 three-mode top-k comparison
  (exhaustive vs early-termination vs early-termination + result cache)
  behind ``benchmarks/test_bench_topk.py`` and ``perf --mode topk``;
* :mod:`repro.perf.ingest` — the ISSUE 5 three-arm write-path
  comparison (seed per-term vs route-cached per-term vs
  destination-grouped batched) behind ``benchmarks/test_bench_ingest.py``
  and ``perf --mode ingest``;
* :mod:`repro.perf.scale` — the DESIGN.md §13 scale-out harness:
  process-sharded build/publish/query phases over a streamed corpus,
  behind ``benchmarks/test_bench_scale.py`` and ``perf --mode scale``;
* :mod:`repro.perf.route` — the DESIGN.md §16 routing sweep: the
  ring × arity × peers hop-count grid behind
  ``benchmarks/test_bench_route.py`` and ``perf --mode route``.

``bench``, ``topk``, ``ingest``, ``scale``, and ``route`` are
deliberately *not* imported here: they build rings and query
processors, and the ring itself imports this package for ``PROFILE`` /
``RouteCache`` — import them explicitly as ``repro.perf.bench`` /
``repro.perf.topk`` / ``repro.perf.ingest`` / ``repro.perf.scale`` /
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
