"""The adversarial workload catalogue (DESIGN.md §14).

Named, seeded scenario programs modelling the nasty traffic production
DHT deployments actually see — flash crowds, hot-term storms, Zipf
-skewed peer capacity, correlated regional failures, free-riders and
flaky responders, live corpus turnover.  Each entry is a declarative
:class:`~repro.sim.events.Scenario` (replayable, JSON-serializable)
plus the engine configuration it stresses (result-cache size, transport
kind), and each run yields both the invariant verdict *and* quality
readouts — precision/recall/NDCG vs the centralized oracle — taken
during and after the stress window (``measure`` events).

Exposed as ``repro check --catalogue NAME|all`` and tracked over time
by ``benchmarks/test_bench_stress.py`` → ``BENCH_STRESS.json``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import NetworkConfig
from .engine import ScenarioEngine, SimReport, build_simulation
from .events import HEAL_SEQUENCE, Scenario, SimEvent


def _events(*specs) -> List[SimEvent]:
    """Tiny builder: each spec is ``kind`` or ``(kind, kwargs)``."""
    events: List[SimEvent] = []
    for spec in specs:
        if isinstance(spec, str):
            events.append(SimEvent(spec))
        else:
            kind, kwargs = spec
            events.append(SimEvent(kind, **kwargs))
    return events


def _setup() -> List[SimEvent]:
    """Shared prologue: share the whole corpus, warm the caches, run
    learning, replicate — the steady state the stress then disturbs."""
    return _events(
        ("publish", {"count": 20}),
        ("publish", {"count": 20}),
        ("publish", {"count": 20}),
        ("query", {"count": 6}),
        "learn",
        "learn",
        "stabilize",
        "replicate",
        "maintain",
        ("measure", {"name": "before"}),
    )


def _heal_and_measure() -> List[SimEvent]:
    """Shared epilogue: replicate + two heal passes (one round of
    probe+reconcile is not always clean after correlated damage), then
    the after-stress quality probe at a provably quiescent state."""
    heal = [SimEvent(kind) for kind in HEAL_SEQUENCE]
    return (
        _events("replicate")
        + heal
        + heal
        + _events(("measure", {"name": "after"}))
    )


def _flash_crowd(seed: int) -> Scenario:
    events = (
        _setup()
        + _events(
            ("flash_crowd", {"count": 40}),
            "crash",
            ("flash_crowd", {"count": 40}),
            ("measure", {"name": "during"}),
            ("flash_crowd", {"count": 40}),
        )
        + _heal_and_measure()
    )
    return Scenario(
        seed=seed,
        events=tuple(events),
        description="flash crowd on one topic, with a crash mid-crowd",
    )


def _hot_term_storm(seed: int) -> Scenario:
    events = (
        _setup()
        + _events(
            ("storm", {"count": 60}),
            "learn",  # term replacement bumps slot versions mid-storm
            ("storm", {"count": 60}),
            ("measure", {"name": "during"}),
            "learn",
            ("storm", {"count": 60}),
        )
        + _heal_and_measure()
    )
    return Scenario(
        seed=seed,
        events=tuple(events),
        description="hot-term storms against one result-home peer, "
        "with learning-driven invalidation between waves",
    )


def _regional_failure(seed: int) -> Scenario:
    events = (
        _setup()
        + _events(
            ("region_fail", {"count": 6}),
            ("query", {"count": 6}),
            ("measure", {"name": "during"}),
        )
        + _heal_and_measure()
    )
    return Scenario(
        seed=seed,
        events=tuple(events),
        description="correlated failure of a contiguous 6-peer ring arc",
    )


def _heterogeneous(seed: int) -> Scenario:
    events = (
        _setup()
        + _events(
            ("behave", {"name": "classes:1.2"}),
            ("query", {"count": 6}),
            ("blackout", {"duration_ms": 60.0}),
            ("storm", {"count": 30}),
            ("query", {"count": 6}),
            ("measure", {"name": "during"}),
            ("query", {"count": 6}),
        )
        + _heal_and_measure()
    )
    return Scenario(
        seed=seed,
        events=tuple(events),
        description="Zipf-skewed peer capacity classes (backbone / "
        "broadband / mobile) over a lossy transport, plus a blackout",
    )


def _free_riders(seed: int) -> Scenario:
    events = (
        _setup()
        + _events(
            ("behave", {"name": "freeride:0.4"}),
            ("query", {"count": 10}),
            "learn",
            ("query", {"count": 10}),
            "learn",
            ("measure", {"name": "during"}),
            ("query", {"count": 10}),
        )
        + _heal_and_measure()
    )
    return Scenario(
        seed=seed,
        events=tuple(events),
        description="40% of peers free-ride: they query but never "
        "register, starving the learning loop",
    )


def _flaky_responders(seed: int) -> Scenario:
    events = (
        _setup()
        + _events(
            ("behave", {"name": "flaky:0.35:0.2"}),
            ("query", {"count": 8}),
            ("storm", {"count": 30}),
            ("measure", {"name": "during"}),
            ("query", {"count": 8}),
        )
        + _heal_and_measure()
    )
    return Scenario(
        seed=seed,
        events=tuple(events),
        description="35% of peers drop a fifth of their messages, on "
        "top of the transport's base loss",
    )


def _corpus_turnover(seed: int) -> Scenario:
    events = (
        _setup()
        + _events(
            ("storm", {"count": 30}),  # warm the result cache
            ("turnover", {"count": 12}),
            ("storm", {"count": 30}),
            ("measure", {"name": "during"}),
            ("turnover", {"count": 12}),
            ("query", {"count": 6}),
        )
        + _heal_and_measure()
    )
    return Scenario(
        seed=seed,
        events=tuple(events),
        description="live corpus turnover: documents edited and "
        "re-shared mid-query-stream, under cached storms",
    )


@dataclass(frozen=True)
class CatalogueEntry:
    """One named adversarial scenario and its engine configuration."""

    name: str
    description: str
    build: Callable[[int], Scenario]
    #: Result-cache capacity per indexing peer (0 = off).
    result_cache_size: int = 64
    #: "perfect" or "lossy" — behaviors needing fault injection (peer
    #: classes, flaky responders, blackouts) require "lossy".
    transport: str = "perfect"
    #: Headline invariants this scenario exists to exercise (the whole
    #: two-tier catalogue still runs; these are the docs/README focus).
    invariants: Tuple[str, ...] = ()


CATALOGUE: Dict[str, CatalogueEntry] = {
    entry.name: entry
    for entry in (
        CatalogueEntry(
            name="flash_crowd",
            description="query load concentrated on a single topic, "
            "with churn mid-crowd",
            build=_flash_crowd,
            invariants=("storm_cache_effective", "hot_load_bounded"),
        ),
        CatalogueEntry(
            name="hot_term_storm",
            description="one query hammered at its indexing and "
            "result-home peers, through cache invalidation",
            build=_hot_term_storm,
            invariants=(
                "storm_cache_effective",
                "hot_load_bounded",
                "slot_version_monotone",
            ),
        ),
        CatalogueEntry(
            name="regional_failure",
            description="a contiguous ring arc crash-stops at once",
            build=_regional_failure,
            invariants=("posting_conservation", "term_resolvability"),
        ),
        CatalogueEntry(
            name="heterogeneous",
            description="Zipf-skewed peer capacity/latency classes on "
            "a lossy transport",
            build=_heterogeneous,
            transport="lossy",
            invariants=("membership_consistency", "primary_placement"),
        ),
        CatalogueEntry(
            name="free_riders",
            description="a large free-riding fraction starves the "
            "learning loop",
            build=_free_riders,
            invariants=("owner_agreement", "query_cache_bounds"),
        ),
        CatalogueEntry(
            name="flaky_responders",
            description="per-peer extra message loss on top of the "
            "base drop rate",
            build=_flaky_responders,
            transport="lossy",
            invariants=("membership_consistency", "term_resolvability"),
        ),
        CatalogueEntry(
            name="corpus_turnover",
            description="documents edited and re-shared mid-stream, "
            "under cached storms",
            build=_corpus_turnover,
            invariants=("result_cache_coherent", "slot_version_monotone"),
        ),
    )
}


def _lossy_network(seed: int) -> NetworkConfig:
    """The catalogue's lossy-transport profile: short constant latency
    (so slow-class multipliers degrade without always timing out), a
    small base loss rate, and a seed derived from the scenario seed."""
    return NetworkConfig(
        transport="lossy",
        latency_model="constant",
        latency_ms=5.0,
        drop_probability=0.03,
        timeout_ms=400.0,
        max_retries=3,
        seed=seed * 7919 + 11,
    )


def build_catalogue_engine(
    entry: CatalogueEntry, seed: int, num_peers: int = 24
) -> ScenarioEngine:
    """The engine an entry runs on: transport + result cache wired per
    the entry, everything seeded from *seed*."""
    from ..net import build_transport

    transport = (
        build_transport(_lossy_network(seed))
        if entry.transport == "lossy"
        else None
    )
    return build_simulation(
        seed=seed,
        num_peers=num_peers,
        transport=transport,
        delta={"sprite": {"result_cache_size": entry.result_cache_size}},
    )


def run_catalogue_entry(
    name: str, seed: int = 0, num_peers: int = 24
) -> SimReport:
    """Run one named scenario from a seed; raises ``KeyError`` for an
    unknown name."""
    entry = CATALOGUE[name]
    engine = build_catalogue_engine(entry, seed, num_peers=num_peers)
    return engine.run(entry.build(seed))


def run_catalogue(
    names: Optional[Sequence[str]] = None,
    seed: int = 0,
    num_peers: int = 24,
) -> Dict[str, SimReport]:
    """Run several (default: all) catalogue scenarios from one seed."""
    selected = list(names) if names else sorted(CATALOGUE)
    return {
        name: run_catalogue_entry(name, seed=seed, num_peers=num_peers)
        for name in selected
    }


def report_record(report: SimReport) -> Dict[str, object]:
    """The JSON-stable rollup of one run, as tracked in
    ``BENCH_STRESS.json`` (quality keyed by probe label; a repeated
    label keeps the last probe)."""
    record: Dict[str, object] = {
        "events": report.events_applied,
        "skipped": report.events_skipped,
        "violations": len(report.violations),
        "degraded": report.degraded_operations,
        "final_quiescent": report.final_quiescent,
        "quality": {r.label: r.to_dict() for r in report.quality},
    }
    if report.storms:
        record["storms"] = {
            "events": len(report.storms),
            "requests": sum(o.queries for o in report.storms),
            "cache_hits": sum(o.cache_hits for o in report.storms),
            "cache_misses": sum(o.cache_misses for o in report.storms),
        }
    return record


def scenario_fingerprint(scenario: Scenario) -> Tuple:
    """A hashable identity for determinism assertions: same seed ⇒ same
    event stream."""
    return (
        scenario.seed,
        tuple(dataclasses.astuple(event) for event in scenario.events),
    )
