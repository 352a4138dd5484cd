"""The invariant catalogue checked between scenario events.

Two tiers, because a distributed system under active damage is *allowed*
to be inconsistent — that is what Section 7's degraded window means:

* **Always-tier** invariants hold in every reachable state, damaged or
  not: ring membership bookkeeping is coherent, primary data sits at the
  node the live-membership oracle says is responsible, and per-slot
  query caches and mutation records respect their bounds.
* **Quiescent-tier** invariants hold once the system has healed — no
  un-stabilized crash, no active blackout, routing converged, and a
  clean maintenance round behind it.  They are the correctness claims
  the repair protocols (stabilize, replica promotion, republish,
  reconciliation) exist to restore: routing tables equal the oracle's
  fixed point, every published posting is resolvable at its responsible
  peer, indexing-peer state agrees with owner state, and each published
  (document, term) pair appears exactly once across the live index.

The checker reads global state directly (it is an oracle, not a peer),
so checking generates no simulated traffic and perturbs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Dict, List, Tuple

from ..core.metadata import SHIPPED_MUTATIONS, QueryCache, TermSlot, query_digest
from ..core.system import SpriteSystem
from ..ir.ranking import RankedList


@dataclass(frozen=True)
class StormObservation:
    """What the engine measured during one concentrated-load event
    (``storm`` or ``flash_crowd``) — the input of the always-tier
    load-concentration invariants, shared with the checker the way the
    recovery log is.

    ``disrupted`` marks observations taken while damage could plausibly
    defeat the result cache (active blackout, un-healed crash, failed
    terms, degraded queries): the cache-effectiveness bounds are claims
    about the *undisturbed* cache, so disrupted observations are exempt.
    """

    kind: str
    queries: int
    distinct_queries: int
    cache_hits: int
    cache_misses: int
    postings_retrieved: int
    #: Largest single-query postings fetch seen in the event.
    max_single_postings: int
    failures: int
    rcache_enabled: bool
    disrupted: bool


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough detail to debug the schedule."""

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.invariant}: {self.detail}"


@dataclass
class InvariantReport:
    """Outcome of one checker pass."""

    quiescent: bool
    checked: List[str] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _digest_index_fault(cache: QueryCache) -> str:
    """What is wrong with *cache*'s digest index, or ``""``: it must hold
    at most one digest per cached arrival, map each digest to the latest
    cached arrival of the one cached tuple that has it, and mark every
    digest two cached tuples share."""
    index = cache.digests
    if len(index) > len(cache):
        return f"of {len(index)} digests over {len(cache)} arrivals"
    latest: Dict[int, Dict[tuple, object]] = {}
    for entry in cache:
        latest.setdefault(query_digest(entry.terms), {})[entry.terms] = entry
    for digest, tuples in latest.items():
        resolved = index.get(digest)
        if len(tuples) > 1 and resolved is not None:
            return f"resolves {digest}, which {len(tuples)} cached tuples share"
        if len(tuples) == 1 and resolved is not next(iter(tuples.values())):
            return f"resolves {digest} to {resolved}, not the latest arrival of its tuple"
    if index.keys() != latest.keys():
        return f"names {len(index.keys() - latest.keys())} digests no cached tuple has"
    return ""


class InvariantChecker:
    """Global-state invariant oracle over a :class:`SpriteSystem`."""

    #: (name, quiescent-only) — the catalogue, in check order.
    CATALOGUE: Tuple[Tuple[str, bool], ...] = (
        ("membership_consistency", False),
        ("primary_placement", False),
        ("query_cache_bounds", False),
        ("resync_traffic_bounded", False),
        ("slot_version_monotone", False),
        ("storm_cache_effective", False),
        ("hot_load_bounded", False),
        ("topology_matches_oracle", True),
        ("term_resolvability", True),
        ("owner_agreement", True),
        ("posting_conservation", True),
        ("result_cache_coherent", True),
    )

    def __init__(
        self, system: SpriteSystem, recovery_log=None, stress_log=None
    ) -> None:
        self.system = system
        #: Shared list of :class:`~repro.store.recovery.RecoveryReport`s
        #: (the engine passes its RecoveryManager's log); ``None`` or
        #: empty makes ``resync_traffic_bounded`` vacuous.
        self.recovery_log = recovery_log
        #: Shared list of :class:`StormObservation`s (the engine appends
        #: one per storm/flash-crowd event); ``None`` or empty makes the
        #: load-concentration invariants vacuous.
        self.stress_log = stress_log
        #: (node id, store key) → last seen slot version, for the
        #: monotonicity check.  Keys vanish (and reset) when the slot
        #: leaves that node — migration and replica promotion legally
        #: restart a slot's version history at its new home.
        self._version_watermarks: Dict[Tuple[int, int], int] = {}

    def check(self, quiescent: bool) -> InvariantReport:
        """Run the always-tier, plus the quiescent tier when the engine
        says the system has healed."""
        report = InvariantReport(quiescent=quiescent)
        for name, quiescent_only in self.CATALOGUE:
            if quiescent_only and not quiescent:
                continue
            report.checked.append(name)
            getattr(self, f"_check_{name}")(report)
        return report

    def _fail(self, report: InvariantReport, invariant: str, detail: str) -> None:
        report.violations.append(InvariantViolation(invariant, detail))

    # -- always tier ------------------------------------------------------

    def _check_membership_consistency(self, report: InvariantReport) -> None:
        ring = self.system.ring
        live = ring.live_ids
        if list(live) != sorted(set(live)):
            self._fail(
                report, "membership_consistency", f"live_ids not sorted/unique: {live}"
            )
        if ring.num_live != len(live):
            self._fail(
                report,
                "membership_consistency",
                f"num_live={ring.num_live} but {len(live)} live ids",
            )
        for node_id in live:
            if not ring.node(node_id).alive:
                self._fail(
                    report,
                    "membership_consistency",
                    f"node {node_id} listed live but alive=False",
                )

    def _check_primary_placement(self, report: InvariantReport) -> None:
        """Every key in a live node's primary store belongs there under
        the live-membership successor oracle.  Holds even mid-damage:
        joins and graceful leaves migrate keys synchronously, and a
        crash removes the node from the oracle's membership without
        moving surviving keys."""
        ring = self.system.ring
        for node_id in ring.live_ids:
            for key in ring.node(node_id).store:
                responsible = ring.successor_of(key)
                if responsible != node_id:
                    self._fail(
                        report,
                        "primary_placement",
                        f"key {key} stored at {node_id}, "
                        f"oracle says {responsible}",
                    )

    def _check_query_cache_bounds(self, report: InvariantReport) -> None:
        """Every slot's query cache within its capacity, and its digest
        index no larger than the cache, each digest naming the latest
        cached arrival of its tuple (or, if two cached tuples share it,
        nothing); its mutation record at most SHIPPED_MUTATIONS entries
        with rising versions below the slot's own, and absent from every
        replica (a clone no querying peer has been shipped from)."""
        ring = self.system.ring
        for node_id in ring.live_ids:
            node = ring.node(node_id)
            for key, slot in node.store.items():
                if not isinstance(slot, TermSlot):
                    continue
                if len(slot.cache) > slot.cache.capacity:
                    self._fail(
                        report,
                        "query_cache_bounds",
                        f"slot {slot.term!r} at {node_id}: cache "
                        f"{len(slot.cache)} > capacity {slot.cache.capacity}",
                    )
                fault = _digest_index_fault(slot.cache)
                if fault:
                    self._fail(
                        report,
                        "query_cache_bounds",
                        f"slot {slot.term!r} at {node_id}: digest index {fault}",
                    )
                mutations = slot.mutations or ()
                versions = [m[0] for m in mutations if m[0] is not None]
                rising = all(
                    a < b for a, b in zip(versions, versions[1:] + [slot.version])
                )
                if len(mutations) > SHIPPED_MUTATIONS or not rising:
                    self._fail(
                        report,
                        "query_cache_bounds",
                        f"slot {slot.term!r} at {node_id}: mutation record "
                        f"of {len(mutations)} at versions {versions}, slot at "
                        f"{slot.version}",
                    )
            for key, slot in node.replicas.items():
                if isinstance(slot, TermSlot) and slot.mutations is not None:
                    self._fail(
                        report,
                        "query_cache_bounds",
                        f"replica of {slot.term!r} at {node_id} records mutations",
                    )

    def _check_resync_traffic_bounded(self, report: InvariantReport) -> None:
        """Snapshot-assisted recovery never ships more than the full
        -resync baseline would: per recovery, shipped postings are
        bounded by the authoritative posting count, and a recovery whose
        every transferred slot matched its checkpoint ships zero
        postings (the digest round is the only traffic).  Vacuous until
        a disk recovery has run."""
        for index, recovery in enumerate(self.recovery_log or ()):
            if recovery.mode != "snapshot":
                continue
            if recovery.postings_shipped > recovery.full_baseline_postings:
                self._fail(
                    report,
                    "resync_traffic_bounded",
                    f"recovery #{index} (peer {recovery.peer}): shipped "
                    f"{recovery.postings_shipped} postings, full baseline "
                    f"is {recovery.full_baseline_postings}",
                )
            if (
                recovery.slots_changed == 0
                and recovery.slots_missing == 0
                and recovery.postings_shipped > 0
            ):
                self._fail(
                    report,
                    "resync_traffic_bounded",
                    f"recovery #{index} (peer {recovery.peer}): all "
                    f"{recovery.slots_matched} slots matched the snapshot "
                    f"but {recovery.postings_shipped} postings shipped",
                )

    def _check_slot_version_monotone(self, report: InvariantReport) -> None:
        """A primary slot's content version never decreases while the
        slot stays at one node — the property result-cache validation
        rests on (a republish must look *newer*, never recycled).  The
        watermark resets when a slot changes homes: migration, replica
        promotion, and snapshot-reload recovery all legally restart
        history at the new (node, key) pair."""
        ring = self.system.ring
        current: Dict[Tuple[int, int], int] = {}
        for node_id in ring.live_ids:
            for key, slot in ring.node(node_id).store.items():
                if not isinstance(slot, TermSlot):
                    continue
                version = slot.version
                current[(node_id, key)] = version
                watermark = self._version_watermarks.get((node_id, key))
                if watermark is not None and version < watermark:
                    self._fail(
                        report,
                        "slot_version_monotone",
                        f"slot {slot.term!r} at node {node_id}: version "
                        f"regressed {watermark} -> {version}",
                    )
        self._version_watermarks = current

    def _check_storm_cache_effective(self, report: InvariantReport) -> None:
        """During an undisturbed concentrated-load event with the result
        cache on, only the *first* occurrence of each distinct query may
        miss — repeats are served from the query's result-home peer.
        Vacuous for observations taken mid-damage (``disrupted``) or
        with caching off."""
        for index, obs in enumerate(self.stress_log or ()):
            if not obs.rcache_enabled or obs.disrupted:
                continue
            if obs.cache_misses > obs.distinct_queries:
                self._fail(
                    report,
                    "storm_cache_effective",
                    f"storm #{index} ({obs.kind}): {obs.cache_misses} misses "
                    f"for {obs.distinct_queries} distinct queries over "
                    f"{obs.queries} requests",
                )

    def _check_hot_load_bounded(self, report: InvariantReport) -> None:
        """Load concentration at the hot indexing peer is bounded: the
        postings fetched during an undisturbed cached storm never exceed
        one full scoring pass per *distinct* query — repeat requests add
        zero scoring work, whatever the storm's length."""
        for index, obs in enumerate(self.stress_log or ()):
            if not obs.rcache_enabled or obs.disrupted:
                continue
            bound = obs.distinct_queries * obs.max_single_postings
            if obs.postings_retrieved > bound:
                self._fail(
                    report,
                    "hot_load_bounded",
                    f"storm #{index} ({obs.kind}): {obs.postings_retrieved} "
                    f"postings fetched, bound is {bound} "
                    f"({obs.distinct_queries} distinct × "
                    f"{obs.max_single_postings} max single fetch)",
                )

    # -- quiescent tier -----------------------------------------------------

    def _check_topology_matches_oracle(self, report: InvariantReport) -> None:
        """Converged routing state equals the sorted-membership fixed
        point: successor/predecessor pointers, successor lists, and
        every finger entry."""
        ring = self.system.ring
        live = list(ring.live_ids)
        n = len(live)
        if n == 0:
            return
        r = ring.config.successor_list_size
        for idx, node_id in enumerate(live):
            node = ring.node(node_id)
            succ = live[(idx + 1) % n]
            pred = live[(idx - 1) % n]
            expected_list = [
                live[(idx + 1 + j) % n] for j in range(min(r, n - 1))
            ] or [node_id]
            if node.successor != succ:
                self._fail(
                    report,
                    "topology_matches_oracle",
                    f"node {node_id}: successor {node.successor} != {succ}",
                )
            if node.predecessor != pred:
                self._fail(
                    report,
                    "topology_matches_oracle",
                    f"node {node_id}: predecessor {node.predecessor} != {pred}",
                )
            if list(node.successor_list) != expected_list:
                self._fail(
                    report,
                    "topology_matches_oracle",
                    f"node {node_id}: successor list {node.successor_list} "
                    f"!= {expected_list}",
                )
            # The expected finger targets follow the ring's own step
            # schedule (2^i at finger arity 2, j·b^l above — DESIGN.md §8).
            for i, finger in enumerate(node.fingers):
                expected = ring.successor_of(
                    (node_id + ring.finger_steps[i]) % ring.space.size
                )
                if finger != expected:
                    self._fail(
                        report,
                        "topology_matches_oracle",
                        f"node {node_id}: finger[{i}]={finger} != {expected}",
                    )
                    break  # one stale finger per node is detail enough

    def _live_owner_terms(self) -> List[Tuple[int, str, str]]:
        """(owner node id, doc id, term) for every posting a currently
        live owner claims — the ground truth the index must mirror."""
        ring = self.system.ring
        claims: List[Tuple[int, str, str]] = []
        for owner in self.system.owners.values():
            if not ring.is_live(owner.node_id):
                continue  # a dead owner's postings are orphans, not claims
            for doc_id, state in owner.shared.items():
                for term in state.index_terms:
                    claims.append((owner.node_id, doc_id, term))
        return claims

    def _check_term_resolvability(self, report: InvariantReport) -> None:
        """Every posting a live owner claims is present at the term's
        responsible peer — in its primary store or, transiently, in a
        promotable replica it holds for a range it just inherited."""
        ring = self.system.ring
        protocol = self.system.protocol
        for __, doc_id, term in self._live_owner_terms():
            key = protocol.term_hash(term)
            node = ring.node(ring.successor_of(key))
            slot = node.store.get(key)
            if slot is None:
                slot = node.replicas.get(key)
            if not (isinstance(slot, TermSlot) and slot.has_posting(doc_id)):
                self._fail(
                    report,
                    "term_resolvability",
                    f"posting ({doc_id!r}, {term!r}) unresolvable at "
                    f"responsible node {node.node_id}",
                )

    def _check_owner_agreement(self, report: InvariantReport) -> None:
        """Every posting held by a primary slot is still claimed by its
        owner (dead owners exempt — reconciliation never deletes on
        behalf of an unreachable peer)."""
        ring = self.system.ring
        owners = self.system.owners
        for node_id in ring.live_ids:
            for slot in ring.node(node_id).store.values():
                if not isinstance(slot, TermSlot):
                    continue
                for posting in slot.entries():
                    doc_id = posting.doc_id
                    owner = owners.get(posting.owner_peer)
                    if owner is None or not ring.is_live(posting.owner_peer):
                        continue
                    state = owner.shared.get(doc_id)
                    if state is None or slot.term not in state.index_terms:
                        self._fail(
                            report,
                            "owner_agreement",
                            f"orphan posting ({doc_id!r}, {slot.term!r}) at "
                            f"node {node_id}: owner {posting.owner_peer} no "
                            f"longer claims it",
                        )

    def _check_posting_conservation(self, report: InvariantReport) -> None:
        """Each (document, term) pair a live owner claims appears exactly
        once across all live primary stores — no loss (resolvability's
        concern) and, crucially, no duplication from replica promotion
        racing republication."""
        ring = self.system.ring
        held: Dict[Tuple[str, str], int] = {}
        for node_id in ring.live_ids:
            for slot in ring.node(node_id).store.values():
                if not isinstance(slot, TermSlot):
                    continue
                for posting in slot.entries():
                    pair = (posting.doc_id, slot.term)
                    held[pair] = held.get(pair, 0) + 1
        for __, doc_id, term in self._live_owner_terms():
            copies = held.get((doc_id, term), 0)
            if copies != 1:
                self._fail(
                    report,
                    "posting_conservation",
                    f"posting ({doc_id!r}, {term!r}) held {copies} times "
                    f"across live primaries (expected exactly 1)",
                )

    def _current_slot(self, term: str):
        """The term's primary slot under the live-membership oracle (or
        ``None``), read without generating traffic."""
        ring = self.system.ring
        key = self.system.protocol.term_hash(term)
        slot = ring.node(ring.successor_of(key)).store.get(key)
        return slot if isinstance(slot, TermSlot) else None

    def _check_result_cache_coherent(self, report: InvariantReport) -> None:
        """At quiescence, every result-cache entry that would still be
        *served* (its recorded slot versions match the current slots,
        no failed terms) equals a fresh exhaustive scoring of today's
        index — after turnover re-publishes and the heal suffix, no
        servable cached answer is stale.

        The recompute mirrors the query processor's scoring pass
        (same term order, same float summation order), so
        agreement is exact, not approximate.
        """
        weighting = self.system.processor.weighting
        for node_id, cache in self.system.protocol.result_caches():
            for __, entry in cache.entries():
                if entry.failed_terms:
                    continue  # only served to identically degraded queries
                current_versions = {
                    term: (
                        slot.version
                        if (slot := self._current_slot(term)) is not None
                        else 0
                    )
                    for term in entry.terms
                }
                if current_versions != entry.slot_versions:
                    continue  # stale-but-inert: the next probe drops it
                dot: Dict[str, float] = {}
                lengths: Dict[str, int] = {}
                scored: set = set()
                for term in entry.terms:
                    if term in scored:
                        continue
                    slot = self._current_slot(term)
                    if slot is None:
                        continue
                    df = slot.indexed_document_frequency
                    if df <= 0:
                        continue
                    scored.add(term)
                    qw = weighting.query_weight(df)
                    for posting in slot.entries():
                        contribution = qw * weighting.document_weight(
                            posting.normalized_tf, df
                        )
                        acc = dot.get(posting.doc_id)
                        dot[posting.doc_id] = (
                            contribution if acc is None else acc + contribution
                        )
                        lengths[posting.doc_id] = posting.doc_length
                scores = {
                    doc_id: (value / sqrt(lengths[doc_id]) if lengths[doc_id] else 0.0)
                    for doc_id, value in dot.items()
                }
                expected = RankedList.top_k(scores, entry.top_k)
                got = [(s.doc_id, s.score) for s in entry.ranked]
                want = [(s.doc_id, s.score) for s in expected]
                if got != want:
                    self._fail(
                        report,
                        "result_cache_coherent",
                        f"cached result for {entry.terms!r} at node "
                        f"{node_id} is servable but stale: cached "
                        f"{got[:3]}… != fresh {want[:3]}…",
                    )
