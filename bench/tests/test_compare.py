"""The A/B verdict rule."""

from __future__ import annotations

from bench.compare import compare, verdict


def entry(value, low=None, high=None):
    return {"value": value, "min": value if low is None else low,
            "max": value if high is None else high}


def test_exact_metrics_tolerate_nothing():
    assert verdict("msgs_per_op", "lower", 0.1, entry(18.0), entry(18.0)) == "same"
    assert verdict("msgs_per_op", "lower", 0.1, entry(18.0), entry(18.001)) == "REGRESSED (exact)"
    assert verdict("msgs_per_op", "lower", 0.1, entry(18.0), entry(17.0)) == "better (exact)"
    assert verdict("precision_ratio_at_20", "higher", 0.1, entry(0.9), entry(0.8)) == "REGRESSED (exact)"


def test_direction_and_bound():
    assert verdict("ops_per_s", "higher", 0.2, entry(1000), entry(790)) == "REGRESSED"
    assert verdict("ops_per_s", "higher", 0.2, entry(1000), entry(810)) == "same"
    assert verdict("ops_per_s", "higher", 0.2, entry(1000), entry(1300)) == "better"
    assert verdict("op_p50_us", "lower", 0.2, entry(300), entry(365)) == "REGRESSED"
    assert verdict("op_p50_us", "lower", 0.2, entry(300), entry(200)) == "better"


def test_a_wide_overlapping_pair_is_unresolved():
    a = entry(300, 250, 400)
    assert verdict("op_p50_us", "lower", 0.2, a, entry(310, 260, 390)) == "unresolved"
    assert verdict("op_p50_us", "lower", 0.2, a, entry(400, 300, 500)) == "unresolved"
    # Wide but disjoint ranges do resolve, in either direction.
    assert verdict("op_p50_us", "lower", 0.2, a, entry(200, 150, 240)) == "better"
    assert verdict("op_p50_us", "lower", 0.2, a, entry(500, 410, 600)) == "REGRESSED"
    # Narrow ranges resolve however they overlap.
    assert verdict("op_p50_us", "lower", 0.2, entry(300, 295, 305), entry(303, 298, 310)) == "same"


def test_compare_flags_failed_checks_and_missing_workloads():
    metrics = {"setup_s": entry(1.0)}
    good = {"metrics": metrics, "correct": True, "failed": 0, "errors": []}
    bad = {"metrics": metrics, "correct": False, "failed": 2, "errors": ["x"]}
    rows = compare({"workloads": {"query_steady": good, "ingest_cold": good}},
                   {"workloads": {"query_steady": bad}})
    outcomes = [row[5] for row in rows]
    assert any(o.startswith("REGRESSED (2 failed ops") for o in outcomes)
    assert "REGRESSED (missing in B)" in outcomes
    assert ("query_steady", "setup_s", 1.0, 1.0, 1.0, "same") in rows
