"""repro.perf — the two harnesses the repo's benchmark does not cover.

* :mod:`repro.perf.scale` — the DESIGN.md §13 scale-out harness:
  process-sharded build/publish/query phases over a streamed corpus,
  behind ``benchmarks/test_bench_scale.py`` and ``perf --mode scale``;
* :mod:`repro.perf.route` — the DESIGN.md §8 routing sweep: the
  finger-arity × peers hop-count grid behind
  ``benchmarks/test_bench_route.py`` and ``perf --mode route``.

Query, ingest, learning, churn and durable-store performance is
measured by ``python3 -m bench`` (``bench/``, BENCHMARK.json), not here.

Nothing in the core imports this package: only :mod:`repro.cli` and
the ``benchmarks/`` gates do, each naming the harness module it needs.
"""
