"""The scenario engine: deterministic execution of event schedules.

:class:`ScenarioEngine` applies :class:`~repro.sim.events.SimEvent`s to
a live :class:`~repro.core.system.SpriteSystem`, advancing the
network clock one tick per event and tracking *quiescence* — whether the
system has healed from the damage the schedule inflicted.  Between
events it runs the :class:`~repro.sim.invariants.InvariantChecker`:
always-tier invariants after every event, the quiescent tier once the
engine can prove the system healed (no un-stabilized crash, past every
blackout window, routing converged, and a clean maintenance round).

All randomness (victim selection, query choice) flows from one seeded
``random.Random``, so a (system seed, scenario) pair replays
byte-identically — the property the determinism regression tests and
hypothesis shrinking both rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import ChordConfig, SpriteConfig, SyntheticCorpusConfig
from ..core.maintenance import MaintenanceDaemon
from ..core.system import SpriteSystem
from ..corpus.document import Document
from ..corpus.relevance import Query
from ..dht.replication import ReplicationManager
from ..exceptions import NodeFailedError
from ..store.recovery import RecoveryManager
from .behaviors import BehaviorPlan, apply_behavior_spec
from .events import Scenario, SimEvent
from .invariants import (
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
    StormObservation,
)
from .quality import QualityProbe, QualityReadout


@dataclass
class SimReport:
    """Everything one scenario run produced."""

    scenario: Scenario
    applied: Dict[str, int] = field(default_factory=dict)
    skipped: Dict[str, int] = field(default_factory=dict)
    checks_run: int = 0
    quiescent_checks: int = 0
    degraded_operations: int = 0
    final_quiescent: bool = False
    #: (step index, event, violation) for every invariant failure.
    violations: List[Tuple[int, SimEvent, InvariantViolation]] = field(
        default_factory=list
    )
    #: Quality probes taken by ``measure`` events, in schedule order.
    quality: List[QualityReadout] = field(default_factory=list)
    #: One observation per concentrated-load (storm/flash-crowd) event.
    storms: List[StormObservation] = field(default_factory=list)

    @property
    def events_applied(self) -> int:
        return sum(self.applied.values())

    @property
    def events_skipped(self) -> int:
        return sum(self.skipped.values())

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_lines(self) -> List[str]:
        """Human-readable rollup for the CLI."""
        lines = [
            f"events applied: {self.events_applied} "
            f"(skipped {self.events_skipped}), "
            f"invariant checks: {self.checks_run} "
            f"({self.quiescent_checks} at quiescence), "
            f"degraded ops: {self.degraded_operations}",
            "applied by kind: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.applied.items())),
        ]
        for readout in self.quality:
            lines.append(readout.summary())
        if self.storms:
            hits = sum(o.cache_hits for o in self.storms)
            misses = sum(o.cache_misses for o in self.storms)
            lines.append(
                f"storms: {len(self.storms)} events, "
                f"{sum(o.queries for o in self.storms)} requests, "
                f"{hits} cache hits / {misses} misses"
            )
        if self.violations:
            lines.append(f"VIOLATIONS: {len(self.violations)}")
            for step, event, violation in self.violations[:20]:
                lines.append(f"  step {step} after {event.kind}: {violation}")
        else:
            lines.append("all invariants held")
        return lines


def revise_document(
    doc: Document, rng: random.Random, edit_fraction: float = 0.3
) -> Document:
    """A deterministic edited revision of *doc* under the same id, for
    ``turnover`` events.

    Roughly ``edit_fraction`` of the token count is edited: tokens are
    deleted, duplicated elsewhere, or overwritten by other tokens of the
    same document, so the revision's term distribution genuinely shifts
    (different top-F index terms after re-share) while staying inside
    the document's own vocabulary.
    """
    if not 0.0 < edit_fraction <= 1.0:
        raise ValueError("edit_fraction must be in (0, 1]")
    tokens = doc.text.split()
    if not tokens:
        return Document(doc.doc_id, doc.text, title=doc.title)
    revised = list(tokens)
    for __ in range(max(1, int(len(tokens) * edit_fraction))):
        position = rng.randrange(len(revised))
        action = rng.random()
        if action < 0.45 and len(revised) > 1:
            del revised[position]
        elif action < 0.90:
            revised.insert(position, rng.choice(tokens))
        else:
            revised[position] = rng.choice(tokens)
    return Document(doc.doc_id, " ".join(revised), title=doc.title)


class ScenarioEngine:
    """Applies scenario events to a system and tracks quiescence.

    Parameters
    ----------
    system:
        The system under test (its ring supplies the clock/transport).
    queries:
        Workload pool for ``query`` events.
    replication / maintenance:
        The repair machinery ``replicate``/``recover``/``maintain``
        events drive; built with defaults when omitted.
    seed:
        Seeds victim/query selection (distinct from the system's seeds).
    tick_ms:
        Simulated time the clock advances per applied event.
    snapshot_interval:
        When > 0 and the system has a store runtime, auto-checkpoint
        every N applied events (in addition to explicit ``snapshot``
        events); 0 means on-demand snapshots only.
    """

    def __init__(
        self,
        system: SpriteSystem,
        queries: Sequence[Query] = (),
        replication: ReplicationManager | None = None,
        maintenance: MaintenanceDaemon | None = None,
        seed: int = 0,
        tick_ms: float = 10.0,
        snapshot_interval: int = 0,
    ) -> None:
        self.system = system
        self.queries = list(queries)
        self.replication = (
            replication
            if replication is not None
            else ReplicationManager(system.ring)
        )
        self.maintenance = (
            maintenance if maintenance is not None else MaintenanceDaemon(system)
        )
        self.store_runtime = getattr(system, "store_runtime", None)
        self.recovery = (
            RecoveryManager(system.ring, self.store_runtime)
            if self.store_runtime is not None
            else None
        )
        #: One entry per storm/flash-crowd event, shared with the checker
        #: (the load-concentration invariants read it like recovery_log).
        self.stress_log: List[StormObservation] = []
        self.checker = InvariantChecker(
            system,
            recovery_log=self.recovery.log if self.recovery is not None else None,
            stress_log=self.stress_log,
        )
        #: Peer behaviors accumulated from ``behave`` events.
        self.behaviors = BehaviorPlan()
        #: Quality probes taken by ``measure`` events.
        self.quality: List[QualityReadout] = []
        self.rng = random.Random(seed)
        self.tick_ms = tick_ms
        self.snapshot_interval = snapshot_interval
        self.snapshots_taken = 0
        self._dirty = False
        self._blackout_until = 0.0
        self._unshared = [
            doc for doc in system.corpus if doc.doc_id not in system._doc_owner
        ]
        self._join_counter = 0
        self._degraded = 0
        #: Peers downed by ``crash_disk``, awaiting ``recover_disk``.
        self._disk_crashed: List[int] = []

    # -- quiescence ------------------------------------------------------------

    @property
    def clock(self):
        return self.system.ring.transport.clock

    @property
    def quiescent(self) -> bool:
        """Whether the quiescent-tier invariants are claimable: no
        unhealed crash, every blackout window elapsed, and routing at
        the converged fixed point."""
        return (
            not self._dirty
            and self.clock.now >= self._blackout_until
            and self.system.ring.converged
        )

    # -- event application -------------------------------------------------------

    def apply(self, event: SimEvent) -> bool:
        """Apply one event; returns False when it was skipped (e.g. a
        crash that would empty the ring, a blackout on a transport that
        cannot model one).  Advances the clock one tick either way a
        state change occurred."""
        handler = getattr(self, f"_apply_{event.kind}")
        applied = handler(event)
        if applied:
            self.clock.advance(self.tick_ms)
        return applied

    def check_now(self) -> InvariantReport:
        """Run the invariant checker against the current state."""
        return self.checker.check(quiescent=self.quiescent)

    def run(self, scenario: Scenario) -> SimReport:
        """Execute a full scenario, checking invariants between events."""
        self.rng.seed(scenario.seed)
        report = SimReport(scenario=scenario)
        for step, event in enumerate(scenario):
            if self.apply(event):
                report.applied[event.kind] = report.applied.get(event.kind, 0) + 1
                if (
                    self.snapshot_interval > 0
                    and self.store_runtime is not None
                    and report.events_applied % self.snapshot_interval == 0
                ):
                    self._snapshot_all()
            else:
                report.skipped[event.kind] = report.skipped.get(event.kind, 0) + 1
            check = self.check_now()
            report.checks_run += 1
            if check.quiescent:
                report.quiescent_checks += 1
            for violation in check.violations:
                report.violations.append((step, event, violation))
        report.degraded_operations = self._degraded
        report.final_quiescent = self.quiescent
        report.quality = list(self.quality)
        report.storms = list(self.stress_log)
        return report

    # -- handlers --------------------------------------------------------------

    def _apply_join(self, event: SimEvent) -> bool:
        self._join_counter += 1
        name = event.name if event.name is not None else f"sim-{self._join_counter}"
        try:
            self.system.ring.join(name=name)
        except Exception:
            return False  # id collision after probing — acceptable no-op
        return True

    def _pick_victim(self) -> Optional[int]:
        ring = self.system.ring
        if ring.num_live <= 2:
            return None
        return ring.random_live_id(self.rng)

    def _apply_leave(self, event: SimEvent) -> bool:
        victim = self._pick_victim()
        if victim is None:
            return False
        self.system.ring.leave(victim)
        return True

    def _apply_crash(self, event: SimEvent) -> bool:
        victim = self._pick_victim()
        if victim is None:
            return False
        self.system.ring.fail(victim)
        self._dirty = True
        return True

    def _apply_blackout(self, event: SimEvent) -> bool:
        transport = self.system.ring.transport
        faults = getattr(transport, "faults", None)
        if faults is None or not transport.active:
            return False  # the perfect transport cannot go dark
        victim = self._pick_victim()
        if victim is None:
            return False
        start = self.clock.now
        end = start + event.duration_ms
        faults.blackout(victim, start, end)
        self._blackout_until = max(self._blackout_until, end)
        return True

    def _apply_publish(self, event: SimEvent) -> bool:
        if not self._unshared:
            return False
        for __ in range(event.count):
            if not self._unshared:
                break
            self.system.share_document(self._unshared.pop(0))
        return True

    def _apply_query(self, event: SimEvent) -> bool:
        if not self.queries:
            return False
        for __ in range(event.count):
            query = self.rng.choice(self.queries)
            try:
                # A free-riding issuer consumes the answer but refuses
                # to register the query — no learning fuel contributed.
                self.system.search(
                    query,
                    cache=not self.behaviors.is_free_rider(
                        self.system._issuer_for(query)
                    ),
                )
            except NodeFailedError:
                self._degraded += 1  # §7 degraded window: issuer gave up
        return True

    def _apply_learn(self, event: SimEvent) -> bool:
        ring = self.system.ring
        live_owners = [
            o for o in self.system.owners.values() if ring.is_live(o.node_id)
        ]
        if not live_owners:
            return False
        owner = self.rng.choice(live_owners)
        try:
            owner.learn_all()
        except NodeFailedError:
            self._degraded += 1
        return True

    def _apply_stabilize(self, event: SimEvent) -> bool:
        self.system.ring.stabilize()
        return True

    def _apply_replicate(self, event: SimEvent) -> bool:
        self.replication.replicate_round()
        if self.replication.undelivered:
            # A flaky/lossy transport can drop a REPLICATE push even
            # after retries; the round is best-effort and the next one
            # re-ships, so count the degradation.
            self._degraded += 1
        return True

    def _apply_recover(self, event: SimEvent) -> bool:
        self.replication.recover_from_failures()
        return True

    def _snapshot_all(self) -> int:
        """Checkpoint every live peer currently holding term slots."""
        assert self.store_runtime is not None
        self.store_runtime.flush_retired()
        saved = 0
        for node_id in self.system.ring.live_ids:
            if self.store_runtime.snapshots.save_peer(self.system.ring.node(node_id)):
                saved += 1
        self.snapshots_taken += 1
        return saved

    def _apply_snapshot(self, event: SimEvent) -> bool:
        if self.store_runtime is None:
            return False  # nothing durable to checkpoint
        self._snapshot_all()
        return True

    def _apply_crash_disk(self, event: SimEvent) -> bool:
        if self.store_runtime is None:
            return False
        victim = self._pick_victim()
        if victim is None:
            return False
        self.system.ring.fail(victim)
        self._disk_crashed.append(victim)
        self._dirty = True
        return True

    def _apply_recover_disk(self, event: SimEvent) -> bool:
        if self.recovery is None or not self._disk_crashed:
            return False
        victim = self._disk_crashed.pop(0)
        self.recovery.recover_peer(victim)
        # Rejoining repairs routing, but postings lost in the outage may
        # still need republication — stay dirty until a clean maintain.
        self._dirty = True
        return True

    # -- adversarial catalogue (DESIGN.md §14) -----------------------------

    def _run_concentrated_load(
        self, event: SimEvent, pool: List[Query], kind: str
    ) -> None:
        """Shared storm/flash-crowd executor: fire ``event.count``
        requests drawn from *pool* and record one
        :class:`StormObservation` for the load-concentration
        invariants."""
        rcache = getattr(self.system.config, "result_cache_size", 0) > 0
        hits = misses = postings = failures = max_single = 0
        # A lossy transport silently eats cache probes/stores (they fail
        # open), so the cache-effectiveness bound only binds when no
        # message-loss mechanism is active.
        faults = getattr(self.system.ring.transport, "faults", None)
        lossy = faults is not None and (
            faults.drop_probability > 0.0 or bool(faults.flaky_nodes)
        )
        disrupted = (
            lossy or self._dirty or self.clock.now < self._blackout_until
        )
        for __ in range(event.count):
            query = pool[0] if len(pool) == 1 else self.rng.choice(pool)
            issuer = self.system._issuer_for(query)
            try:
                __, execution = self.system.execute(
                    query, cache=not self.behaviors.is_free_rider(issuer)
                )
            except NodeFailedError:
                self._degraded += 1
                failures += 1
                continue
            if execution.cache_hit:
                hits += 1
            else:
                misses += 1
                postings += execution.postings_retrieved
                max_single = max(max_single, execution.postings_retrieved)
            if execution.terms_failed:
                disrupted = True
        self.stress_log.append(
            StormObservation(
                kind=kind,
                queries=event.count,
                distinct_queries=len({q.query_id for q in pool}),
                cache_hits=hits,
                cache_misses=misses,
                postings_retrieved=postings,
                max_single_postings=max_single,
                failures=failures,
                rcache_enabled=rcache,
                disrupted=disrupted or failures > 0,
            )
        )

    def _apply_storm(self, event: SimEvent) -> bool:
        """Hot-term query storm: ``count`` repeats of one query hammer
        its indexing peers and its result-home peer."""
        if not self.queries:
            return False
        query = None
        if event.name is not None:
            query = next(
                (q for q in self.queries if q.query_id == event.name), None
            )
        if query is None:
            query = self.rng.choice(self.queries)
        self._run_concentrated_load(event, [query], kind="storm")
        return True

    def _apply_flash_crowd(self, event: SimEvent) -> bool:
        """Flash crowd: ``count`` queries concentrated on one topic —
        the anchor query plus every pool query sharing a term with it."""
        if not self.queries:
            return False
        anchor = self.rng.choice(self.queries)
        anchor_terms = set(anchor.terms)
        pool = [q for q in self.queries if anchor_terms & set(q.terms)]
        self._run_concentrated_load(event, pool or [anchor], kind="flash_crowd")
        return True

    def _apply_region_fail(self, event: SimEvent) -> bool:
        """Correlated regional failure: crash-stop ``count`` peers that
        are *contiguous* on the ring, all at once — the case successor
        lists exist for, and the one uncorrelated churn never hits."""
        ring = self.system.ring
        live = list(ring.live_ids)
        count = min(event.count, len(live) - 3)
        if count < 1:
            return False
        start = self.rng.randrange(len(live))
        for offset in range(count):
            ring.fail(live[(start + offset) % len(live)])
        self._dirty = True
        return True

    def _apply_turnover(self, event: SimEvent) -> bool:
        """Live corpus turnover: edit ``count`` currently shared
        documents and re-share the revisions mid-stream, driving the
        batched unpublish/publish path and bumping slot versions under
        any cached results."""
        shared = sorted(self.system._doc_owner)
        if not shared:
            return False
        chosen = self.rng.sample(shared, min(event.count, len(shared)))
        revised = [
            revise_document(self.system.corpus.get(doc_id), self.rng)
            for doc_id in chosen
        ]
        try:
            self.system.bulk_unshare(chosen)
        except NodeFailedError:
            self._degraded += 1
        for doc in revised:
            self.system.corpus.replace(doc)
        to_share = [
            doc for doc in revised if doc.doc_id not in self.system._doc_owner
        ]
        try:
            if to_share:
                self.system.bulk_share(to_share)
        except NodeFailedError:
            self._degraded += 1
        # Revisions stranded by a mid-damage failure stay available to
        # later publish events instead of silently vanishing.
        stranded = {
            doc.doc_id for doc in revised
        } - set(self.system._doc_owner)
        known = {doc.doc_id for doc in self._unshared}
        for doc in revised:
            if doc.doc_id in stranded and doc.doc_id not in known:
                self._unshared.append(doc)
        return True

    def _apply_behave(self, event: SimEvent) -> bool:
        """Apply a peer-behavior spec (``classes:E`` / ``freeride:F`` /
        ``flaky:F:P``) to the current live population."""
        faults = getattr(self.system.ring.transport, "faults", None)
        assert event.name is not None  # enforced by SimEvent validation
        return apply_behavior_spec(
            self.behaviors,
            event.name,
            list(self.system.ring.live_ids),
            self.rng,
            faults,
        )

    def _apply_measure(self, event: SimEvent) -> bool:
        """Take a quality readout against the centralized oracle; the
        event name labels the probe ("during"/"after" by convention)."""
        if not self.queries:
            return False
        label = event.name or ("after" if self.quiescent else "during")
        self.quality.append(
            QualityProbe(self.system, self.queries).measure(label)
        )
        return True

    def _apply_maintain(self, event: SimEvent) -> bool:
        report = self.maintenance.run_round()
        if (
            report.clean
            and self.system.ring.converged
            and self.clock.now >= self._blackout_until
        ):
            # A clean probe+reconcile round over a converged ring is the
            # proof the damage healed: quiescent-tier checks may resume.
            self._dirty = False
        return True


#: A configuration delta: ``{"sprite" | "chord": {field: value}}`` —
#: ``SpriteConfig`` fields and ``ChordConfig`` fields.
Delta = Mapping[str, Mapping[str, object]]


def micro_configs(
    num_peers: int, seed: int, *deltas: Delta
) -> Tuple[SpriteConfig, ChordConfig]:
    """The micro deployment every ``repro.sim`` harness runs on — nine
    index terms in two learning rounds, a *num_peers* ring seeded from
    *seed* — with *deltas* applied in order."""
    sprite = SpriteConfig(
        initial_terms=3,
        terms_per_iteration=3,
        learning_iterations=2,
        max_index_terms=9,
        query_cache_size=100,
        assumed_corpus_size=1000,
        top_k_answers=10,
    )
    chord = ChordConfig(
        num_peers=num_peers, id_bits=32, successor_list_size=4, seed=seed + 7
    )
    for delta in deltas:
        sprite = replace(sprite, **delta.get("sprite", {}))
        chord = replace(chord, **delta.get("chord", {}))
    return sprite, chord


def build_simulation(
    seed: int = 0,
    num_peers: int = 24,
    transport=None,
    queries: Sequence[Query] | None = None,
    tick_ms: float = 10.0,
    snapshot_interval: int = 0,
    delta: Delta | None = None,
) -> ScenarioEngine:
    """A ready-to-run micro simulation for the CLI and the fuzzers.

    Builds a small synthetic corpus and query pool, a SPRITE system on
    :func:`micro_configs` plus *delta* (all seeded from *seed*),
    replication + maintenance managers, and wires them into a
    :class:`ScenarioEngine`.  Nothing is shared up front — scenarios
    publish incrementally.  What a caller varies goes in *delta*: the
    durable-store events (``snapshot``/``crash_disk``/``recover_disk``)
    are skipped unless it sets ``store_backend="sqlite"``
    (``snapshot_interval`` is the engine's own), ``result_cache_size``
    switches on the version-invalidated query-result cache the
    hot-term-storm scenarios hammer, and a ``finger_arity`` above 2
    changes hop counts and no other scenario outcome.
    """
    from ..corpus.synthetic import SyntheticTrecCorpus

    corpus_config = SyntheticCorpusConfig(
        num_documents=60,
        num_topics=6,
        vocabulary_size=420,
        topic_core_size=20,
        mean_doc_length=60,
        min_doc_length=20,
        num_original_queries=8,
        relevant_per_query=8,
        seed=seed + 99,
    )
    corpus, originals, __ = SyntheticTrecCorpus(corpus_config).build()
    sprite, chord = micro_configs(num_peers, seed, delta or {})
    system = SpriteSystem(
        corpus, sprite_config=sprite, chord_config=chord, transport=transport
    )
    pool = list(queries) if queries is not None else list(originals)
    return ScenarioEngine(
        system,
        queries=pool,
        seed=seed,
        tick_ms=tick_ms,
        snapshot_interval=snapshot_interval,
    )
