"""Owner-side index maintenance: liveness probing, republication, and
posting reconciliation.

The paper's introduction counts this among the costs of a distributed
inverted index: "it is equally costly for the owner peer to periodically
probe the indexing peers to ensure that they are still 'alive'" — and
notes SPRITE makes it affordable by keeping the number of indexed terms
small.  This module implements the probe loop:

* each maintenance round, every owner sends one heartbeat to each
  indexing peer of its published terms, naming the (term, document)
  postings that peer should hold — grouped and located like the owner's
  writes, so a peer it already knows costs no lookup;
* if the peer is unreachable (crashed before repair) the owner waits —
  the §7 degraded window;
* if routing has been repaired and the term now resolves to a *new*
  responsible peer that lacks the posting (the data died with the old
  peer and no replica was promoted), the owner **republishes** it — the
  self-healing path that complements successor replication.

A second, indexing-peer-driven pass — **reconciliation** — audits the
reverse direction: every indexing peer validates each posting it holds
against the owner's current index-term set and drops postings the owner
no longer claims.  Without it, two failure interleavings the simulation
harness (:mod:`repro.sim`) surfaced leave permanent orphans:

* an unpublish that raced a crash (the owner dropped the term locally
  but the deletion never reached a peer that was down at the time);
* a stale replica promoted after a failure, resurrecting postings that
  were unpublished after the replica was shipped.

Orphaned postings inflate the indexed document frequency n'_k — the
paper's ranking surrogate — so reconciliation is a correctness matter,
not mere tidiness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dht.messages import MessageKind, message
from ..exceptions import NodeFailedError
from .metadata import TermSlot
from .system import SpriteSystem


@dataclass
class MaintenanceReport:
    """Outcome of one maintenance round."""

    probes_sent: int = 0
    peers_unreachable: int = 0
    postings_intact: int = 0
    postings_republished: int = 0
    #: Orphaned postings dropped by the reconciliation pass (postings
    #: whose live owner no longer indexes the term for that document).
    postings_retired: int = 0
    reconcile_messages: int = 0

    @property
    def postings_checked(self) -> int:
        return self.postings_intact + self.postings_republished

    @property
    def clean(self) -> bool:
        """Whether the round found the index fully healed: every probe
        reached a live peer holding the posting and no orphans had to
        be retired."""
        return (
            self.peers_unreachable == 0
            and self.postings_republished == 0
            and self.postings_retired == 0
        )


class MaintenanceDaemon:
    """Periodic owner-driven probing over a distributed system.

    One daemon serves all owner peers of a system (the simulation
    equivalent of every owner running its own timer loop).
    """

    def __init__(self, system: SpriteSystem) -> None:
        self.system = system

    def run_round(self) -> MaintenanceReport:
        """Probe every published (document, term) posting once, then
        reconcile indexing-peer state against owner state.

        Each live owner probes as it writes: one :meth:`~repro.core.
        indexer.IndexingProtocol.heartbeat_batch` over all its postings,
        absorbing into the peers it knows (:attr:`OwnerPeer.peers`) and
        adding those it had to look up.  The report still counts
        postings, not messages."""
        report = MaintenanceReport()
        protocol = self.system.protocol
        ring = self.system.ring

        for owner in self.system.owners.values():
            if not ring.is_live(owner.node_id):
                continue  # a crashed owner probes nothing
            probed = [
                (state, term) for state in owner.shared.values() for term in state.index_terms
            ]
            taken_at, __, located = protocol.heartbeat_batch(
                owner.node_id, [term for __, term in probed], owner.peers
            )
            owner._know(located)
            sent = {term for batch in located.values() for term in batch}
            for state, term in probed:
                if term in sent:
                    report.probes_sent += 1
                node = taken_at.get(term)
                if node is None:
                    # The peer could not be located — down before repair,
                    # nothing to do until stabilization (paper §7, option
                    # 1) — or its heartbeat was lost.
                    report.peers_unreachable += 1
                    continue
                slot = node.adopt(protocol.term_hash(term))
                if isinstance(slot, TermSlot) and slot.has_posting(state.document.doc_id):
                    report.postings_intact += 1
                    continue
                # The responsible peer has no posting for us: the slot
                # died with a failed peer (or a fresh joiner took over an
                # empty range).  Republish.
                owner._publish_terms_force(state, term)
                report.postings_republished += 1
        self._reconcile_round(report)
        return report

    def _reconcile_round(self, report: MaintenanceReport) -> None:
        """Indexing-peer-driven audit: drop postings whose live owner no
        longer claims the (document, term) pair.

        Each indexing peer batches one RECONCILE message per distinct
        owner peer it holds postings for; the owner's reply carries the
        verdicts (modelled as a single round trip).  Postings owned by
        peers that are currently dead or unknown are left untouched —
        they may still be healed or reclaimed, and deleting data on
        behalf of an unreachable owner is exactly the kind of guess a
        correct protocol never makes.
        """
        ring = self.system.ring
        owners = self.system.owners
        for node_id in ring.live_ids:
            node = ring.node(node_id)
            audited_owners = set()
            for key, slot in list(node.store.items()):
                if not isinstance(slot, TermSlot):
                    continue
                # Plain rows, copied because the loop removes some: the
                # audit builds no entry per posting and leaves none behind.
                for doc_id, owner_peer, __, __ in list(slot.rows()):
                    owner = owners.get(owner_peer)
                    if owner is None or not ring.is_live(owner_peer):
                        continue
                    state = owner.shared.get(doc_id)
                    if state is not None and slot.term in state.index_terms:
                        continue
                    if owner_peer not in audited_owners:
                        try:
                            ring.send(
                                message(MessageKind.RECONCILE, node_id, owner_peer)
                            )
                        except NodeFailedError:
                            continue
                        audited_owners.add(owner_peer)
                        report.reconcile_messages += 1
                    slot.remove_posting(doc_id)
                    report.postings_retired += 1

    def heal_until_stable(self, max_rounds: int = 5) -> int:
        """Run rounds until a round republishes nothing (or the budget
        runs out); returns the total number of republications."""
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        total = 0
        for __ in range(max_rounds):
            report = self.run_round()
            total += report.postings_republished
            if report.clean:
                break
        return total
