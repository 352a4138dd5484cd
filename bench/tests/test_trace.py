"""Tracer: self-time arithmetic, faithful install/uninstall, and
tolerance of targets and call shapes that changed under it."""

from __future__ import annotations

import pytest

from bench import trace
from bench.tests import sample_layers
from bench.trace import LAYER_TABLE, Tracer, _resolve

SAMPLE = "bench.tests.sample_layers"


class Ticks:
    """A clock the traced functions advance by hand."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


@pytest.fixture
def ticks(monkeypatch):
    clock = Ticks()
    monkeypatch.setattr(trace, "perf_counter", clock)
    return clock


def test_self_time_excludes_child_spans(ticks):
    tracer = Tracer([(SAMPLE, "outer", "a", None), (SAMPLE, "leaf", "b", None)])
    with tracer.installed():
        tracer.active = True
        assert sample_layers.outer(ticks) == "outer"
    assert tracer.self_s == {"a": 4.0, "b": 2.0}
    assert tracer.calls == {"a": 1, "b": 1}
    assert tracer.parent == [-1, 0]
    summary = tracer.summary(wall_s=7.0)
    assert summary["harness.self_s"] == pytest.approx(1.0)
    assert summary["a.self_s"] + summary["b.self_s"] + summary["harness.self_s"] == 7.0


def test_recursive_spans_count_once_and_sum_to_the_outer_duration(ticks):
    tracer = Tracer([(SAMPLE, "countdown", "rec", None)])
    with tracer.installed():
        tracer.active = True
        sample_layers.countdown(ticks, 3)
    assert len(tracer.layer) == 4          # one span per level
    assert tracer.calls["rec"] == 1        # one call of the layer
    assert tracer.self_s["rec"] == pytest.approx(4.0)
    assert tracer.end[0] - tracer.start[0] == pytest.approx(4.0)


def test_nothing_is_recorded_while_inactive(ticks):
    tracer = Tracer([(SAMPLE, "outer", "a", None)])
    with tracer.installed():
        sample_layers.outer(ticks)
    assert tracer.layer == []


def test_descriptors_survive_wrapping():
    table = [
        (SAMPLE, "Shapes.made_by_class", "x", None),
        (SAMPLE, "Shapes.static", "x", None),
        (SAMPLE, "Shapes.method", "x", None),
    ]
    tracer = Tracer(table)
    with tracer.installed():
        tracer.active = True
        shapes = sample_layers.Shapes()
        assert sample_layers.Shapes.made_by_class(1) == (sample_layers.Shapes, 1)
        assert shapes.made_by_class(1) == (sample_layers.Shapes, 1)
        assert sample_layers.Shapes.static(2) == 4
        assert shapes.method(3) == (shapes, 3)
    assert tracer.calls["x"] == 4


def test_uninstall_restores_the_identical_objects():
    before = {}
    for path, attribute, __, __ in LAYER_TABLE:
        owner, name, raw = _resolve(path, attribute)
        before[(path, attribute)] = (owner, name, raw)
    tracer = Tracer()
    with tracer.installed():
        assert tracer.missing == []
        for owner, name, raw in before.values():
            assert vars(owner)[name] is not raw
    for owner, name, raw in before.values():
        assert vars(owner)[name] is raw


def test_ranked_list_top_k_stays_a_classmethod_while_traced():
    from repro.ir import RankedList

    raw = vars(RankedList)["top_k"]
    assert isinstance(raw, classmethod)
    tracer = Tracer()
    with tracer.installed():
        tracer.active = True
        ranked = RankedList.top_k({"d1": 0.5, "d2": 0.9, "d3": 0.1}, 2)
        tracer.active = False
        assert isinstance(ranked, RankedList)
        assert ranked.top_ids(2) == ["d2", "d1"]
    assert tracer.calls["ir.ranking"] == 1
    assert vars(RankedList)["top_k"] is raw


def test_a_vanished_target_is_listed_not_raised(ticks):
    table = [
        (SAMPLE, "outer", "a", None),
        (SAMPLE, "no_such_function", "gone", None),
        ("bench.tests.no_such_module", "f", "gone", None),
        (SAMPLE, "Shapes.no_such_method", "gone", None),
    ]
    tracer = Tracer(table)
    with tracer.installed():
        tracer.active = True
        sample_layers.outer(ticks)
    assert len(tracer.missing) == 3
    summary = tracer.summary(wall_s=6.0)
    assert summary["gone.calls"] is None and summary["gone.self_s"] is None
    assert summary["a.calls"] == 1
    assert summary["trace.missing"] == 3


def test_a_hook_that_no_longer_fits_is_switched_off(ticks):
    def hook(counts, samples, args, result):
        counts["seen"] += result.no_such_attribute

    tracer = Tracer([(SAMPLE, "leaf", "b", hook)])
    with tracer.installed():
        tracer.active = True
        assert sample_layers.leaf(ticks) == "leaf"
        assert sample_layers.leaf(ticks) == "leaf"
    assert tracer.broken_hooks == [f"{SAMPLE}:leaf"]
    assert tracer.calls["b"] == 2


def test_an_exception_closes_its_span_and_counts_as_failed(ticks):
    def boom(ticks):
        ticks.advance(1.0)
        raise KeyError("x")

    sample_layers.boom = boom
    try:
        tracer = Tracer([(SAMPLE, "boom", "b", None)])
        with tracer.installed():
            tracer.active = True
            with pytest.raises(KeyError):
                sample_layers.boom(ticks)
        assert tracer.failed["b"] == 1
        assert tracer.self_s["b"] == 1.0
        assert tracer._open == []
    finally:
        del sample_layers.boom
