"""repro.sim — deterministic scenario simulation and verification.

The testing subsystem: a declarative scenario DSL
(:mod:`repro.sim.events`), an engine that executes schedules against a
live system while tracking quiescence (:mod:`repro.sim.engine`), a
two-tier invariant catalogue checked between events
(:mod:`repro.sim.invariants`), and the adversarial workload catalogue —
flash crowds, hot-term storms, heterogeneous peers, regional failures,
corpus turnover — with quality-under-stress readouts
(:mod:`repro.sim.catalogue`, :mod:`repro.sim.behaviors`,
:mod:`repro.sim.quality`).  Exposed on the command line as
``repro check`` / ``repro check --catalogue``.
"""

from .behaviors import (
    PEER_CLASSES,
    BehaviorPlan,
    PeerClass,
    apply_behavior_spec,
    assign_peer_classes,
    parse_behavior_spec,
)
from .catalogue import (
    CATALOGUE,
    CatalogueEntry,
    build_catalogue_engine,
    report_record,
    run_catalogue,
    run_catalogue_entry,
)
from .engine import ScenarioEngine, SimReport, build_simulation
from .events import (
    EVENT_KINDS,
    HEAL_SEQUENCE,
    MIN_RANDOM_EVENTS,
    Scenario,
    SimEvent,
    random_scenario,
)
from .invariants import (
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
    StormObservation,
)
from .quality import QualityProbe, QualityReadout

__all__ = [
    "CATALOGUE",
    "EVENT_KINDS",
    "HEAL_SEQUENCE",
    "MIN_RANDOM_EVENTS",
    "PEER_CLASSES",
    "BehaviorPlan",
    "CatalogueEntry",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "PeerClass",
    "QualityProbe",
    "QualityReadout",
    "Scenario",
    "ScenarioEngine",
    "SimEvent",
    "SimReport",
    "StormObservation",
    "apply_behavior_spec",
    "assign_peer_classes",
    "build_catalogue_engine",
    "build_simulation",
    "parse_behavior_spec",
    "random_scenario",
    "report_record",
    "run_catalogue",
    "run_catalogue_entry",
]
