"""Metric vocabulary: names, units, directions and bounds.

``END_TO_END`` is what every workload reports on ``--trace 0`` and what
``BENCHMARK.json`` lists; ``DETAIL`` are the workload-specific readouts
kept in the full record beside them; ``PER_LAYER`` is the ``layers``
block of the traced pass.  ``bench/tests/test_schema.py`` holds
``BENCHMARK.json`` to these tables.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .trace import LAYERS

#: name -> (unit, better, bound).  The bound is the relative worsening of
#: a median that counts as a regression: about three times the widest
#: spread (quartile distance / median) ten seeds showed on any workload
#: on the sizing box — op streams 0.02-0.065, the long calls that make up
#: ``timed_wall_s`` on ``churn_mixed`` and ``durable_rejoin`` 0.085-0.095.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.2),
    "op_p50_us": ("us", "lower", 0.2),
    "timed_wall_s": ("s", "lower", 0.25),
    "msgs_per_op": ("count", "lower", 0.1),
    "bytes_per_op": ("bytes", "lower", 0.15),
    "precision_ratio_at_20": ("ratio", "higher", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: name -> (unit, better, bound, workloads that report it).
DETAIL: Dict[str, Tuple[str, str, float, Tuple[str, ...]]] = {
    "query_p99_us": ("us", "lower", 0.25, ("query_steady",)),
    "query_p50_us": ("us", "lower", 0.2, ("churn_mixed",)),
    "share_p50_us": ("us", "lower", 0.2, ("churn_mixed",)),
    "repair_round_s": ("s", "lower", 0.2, ("churn_mixed",)),
    "virt_query_p99_ms": ("virtual_ms", "lower", 0.0, ("churn_mixed",)),
    "share_docs_per_s": ("1/s", "higher", 0.2, ("durable_rejoin",)),
    "snapshot_s": ("s", "lower", 0.25, ("durable_rejoin",)),
    "rejoin_cycle_s": ("s", "lower", 0.2, ("durable_rejoin",)),
}

#: Metrics that repeat bit for bit under one seed: compare treats them
#: as exact whatever bound the cross-seed contract gives them.
EXACT = frozenset(
    {"msgs_per_op", "bytes_per_op", "precision_ratio_at_20", "virt_query_p99_ms"}
)

_EXTRAS: Dict[str, Tuple[str, str]] = {
    "text.tokens_per_s": ("1/s", "higher"),
    "dht.lookup.hops_mean": ("count", "lower"),
    "dht.lookup.hops_p99": ("count", "lower"),
    "dht.lookup.route_cache_hit_rate": ("ratio", "higher"),
    "dht.lookup.failed": ("count", "lower"),
    "dht.membership.ring_build_s": ("s", "lower"),
    "dht.send.msgs": ("count", "lower"),
    "dht.send.bytes": ("bytes", "lower"),
    "net.transport.retries": ("count", "lower"),
    "net.transport.drops": ("count", "lower"),
    "net.transport.virtual_ms": ("virtual_ms", "lower"),
    "core.indexer.write.postings": ("count", "lower"),
    "core.indexer.write.lookups_per_batch": ("count", "lower"),
    "core.indexer.read.postings_returned": ("count", "lower"),
    "core.indexer.poll.queries_returned": ("count", "lower"),
    "ir.postings.rows": ("count", "lower"),
    "store.sqlite.rows": ("count", "lower"),
    "store.sqlite.db_bytes_per_posting": ("bytes", "lower"),
    "store.sqlite.negative_read_share": ("ratio", "higher"),
    "core.query.postings_retrieved": ("count", "lower"),
    "core.query.candidates": ("count", "lower"),
    "core.query.scored_share": ("ratio", "lower"),
    "core.learning.terms_changed": ("count", "lower"),
    "dht.replication.postings_copied": ("count", "lower"),
    "core.maintenance.postings_checked": ("count", "lower"),
    "core.maintenance.republished": ("count", "lower"),
    "store.snapshot.bytes_written": ("bytes", "lower"),
    "store.recovery.postings_shipped": ("count", "lower"),
    "store.recovery.full_baseline_postings": ("count", "lower"),
    "harness.wall_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.missing": ("count", "lower"),
}

#: name -> (unit, better): every layer's calls and self time, then extras.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{
        f"{layer}.{leaf}": (unit, "lower")
        for layer in LAYERS
        for leaf, unit in (("calls", "count"), ("self_s", "s"))
    },
    **_EXTRAS,
}


def workload_metrics(workload: str) -> Dict[str, Tuple[str, str, float]]:
    """Every bounded metric *workload* reports: end-to-end, then detail."""
    out = dict(END_TO_END)
    for name, (unit, better, bound, where) in DETAIL.items():
        if workload in where:
            out[name] = (unit, better, bound)
    return out
