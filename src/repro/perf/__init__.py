"""repro.perf — the one harness the repo's benchmark does not cover.

:mod:`repro.perf.route` is the DESIGN.md §8 routing sweep: the
finger-arity × peers hop-count grid behind
``benchmarks/test_bench_route.py`` and ``repro perf``.

Query, ingest, learning, churn and durable-store performance is
measured by ``python3 -m bench`` (``bench/``, BENCHMARK.json), not here.

Nothing in the core imports this package: only :mod:`repro.cli` and
the ``benchmarks/`` gate do.
"""
