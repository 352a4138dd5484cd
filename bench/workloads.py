"""The five named workloads.

Each workload is a class with two steps.  ``prepare`` builds, once per
process, everything the seed decides — query stream, op mix, documents —
and ``repetition`` builds a system, runs the timed region through a
:class:`~bench.measure.Meter` and verifies what came out.  The timed
loops only make calls; sizes are counts, scaled by ``--seconds`` (and
``--quick``), never shapes or mixes.

What the seed drives: ring ids, query popularity and order, document
arrival order, the op mix, which documents are withdrawn, which peers
leave or crash, and the transport RNG.  The corpora themselves are fixed
(:data:`CORPUS_SEED`): on a seeded corpus the cost of one op moves by
10-15 % from seed to seed with the posting-list lengths (and precision by
up to 25 %), which a check of the spread across seeds cannot tell from
noise and which would force every bound to its maximum.

Only public ``repro`` packages are imported here (``tests/test_cli.py``
checks it): not ``repro.cli``, ``repro.sim`` or the ``repro.perf``
workload modules, so those can be deleted without touching the benchmark.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import (
    ChordConfig,
    NetworkConfig,
    SpriteConfig,
    SyntheticCorpusConfig,
    paper_experiment_config,
    small_experiment_config,
)
from repro.core import MaintenanceDaemon, OwnerPeer, SpriteSystem, TermSlot
from repro.corpus import Document, SyntheticTrecCorpus, ZipfSampler
from repro.dht import ReplicationManager
from repro.evaluation import build_environment, relative_to_centralized
from repro.ir import CentralizedSystem
from repro.net import build_transport
from repro.store import RecoveryManager

from . import ROOT
from .measure import Meter, Op, StreamResult, latency_summary, ranking_checksum

#: ``--seconds`` value at which every count below applies unscaled.
NOMINAL_SECONDS = 8

#: Seed of every corpus (see the module docstring).
CORPUS_SEED = 20070415

#: Where the durable workload keeps its database (inside the checkout).
SCRATCH = ROOT / ".bench_scratch"


@dataclass
class Repetition:
    """What one repetition measured.  ``gates`` must be equal across the
    repetitions of a run and between the timed and the traced pass."""

    setup_s: float
    ops: int
    failed: int
    ops_per_s: float
    op_p50_us: float
    msgs_per_op: float
    bytes_per_op: float
    precision_ratio_at_20: float
    gates: Dict[str, object]
    #: Workload-specific readouts, see schema.DETAIL: name -> the samples
    #: this repetition took (several only where rounds repeat the same
    #: work, so that their range says something about noise).
    detail: Dict[str, List[float]] = field(default_factory=dict)
    #: Tail readouts: op kind -> {"percentile", "value", "samples"}.
    tails: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Per-layer extras only the workload can read off the system.
    layer_extras: Dict[str, float] = field(default_factory=dict)
    #: Violated output checks; empty means the outputs are correct.
    errors: List[str] = field(default_factory=list)


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


class Traffic:
    """Message, byte and route-cache counters over the op stream of one
    repetition (``with traffic:`` around each segment of it)."""

    def __init__(self, ring) -> None:
        self.ring = ring
        self.msgs = self.bytes = self.hits = self.misses = 0

    def _read(self) -> Tuple[int, int, int, int]:
        stats = self.ring.stats
        cache = self.ring.route_cache.stats() if self.ring.route_cache is not None else {}
        return (
            stats.total_messages,
            stats.total_bytes,
            cache.get("hits", 0),
            cache.get("misses", 0),
        )

    def __enter__(self) -> "Traffic":
        self._before = self._read()
        return self

    def __exit__(self, *exc) -> None:
        msgs, nbytes, hits, misses = (
            now - then for now, then in zip(self._read(), self._before)
        )
        self.msgs += msgs
        self.bytes += nbytes
        self.hits += hits
        self.misses += misses

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def _query_op(system, latencies_ms: Optional[List[float]] = None) -> Callable:
    """A query as a stream op: fails when a term's peer was unreachable."""
    execute = system.execute

    def run(query):
        __, execution = execute(query)
        if latencies_ms is not None:
            latencies_ms.append(execution.latency_ms)
        return execution.terms_failed == 0

    return run


def _idle_peer(system, rng: random.Random) -> int:
    """A live peer that owns no document, so removing it strands no
    owner state (querying peers are re-derived per query)."""
    candidates = [n for n in system.ring.live_ids if n not in system.owners]
    return candidates[rng.randrange(len(candidates))]


def _index_checksum(system, doc_ids: Sequence[str]) -> str:
    digest = hashlib.sha256()
    for doc_id in sorted(doc_ids):
        digest.update(f"{doc_id}:{','.join(system.index_terms(doc_id))}\n".encode())
    return digest.hexdigest()


def _tails(result: StreamResult, *kinds: str) -> Dict[str, Dict[str, object]]:
    out = {}
    for kind in kinds:
        summary = latency_summary(result.of_kind(kind))
        out[kind] = {
            "percentile": summary.get("tail_percentile"),
            "value": summary.get("tail"),
            "samples": summary["samples"],
        }
    return out


def _p50_us(samples: Sequence[float]) -> float:
    return latency_summary(samples)["p50"]  # type: ignore[return-value]


class Workload:
    """Base: the environment the four paper-corpus workloads share, the
    untimed probe pass, and the common part of a repetition's readout."""

    name = ""
    why = ""
    #: Repetitions of the timed pass; 1 marks a single long repetition
    #: whose per-op samples supply the medians.
    repetitions = 3

    def __init__(self, seed: int, scale: float = 1.0, quick: bool = False) -> None:
        self.seed = seed
        self.scale = scale / 20.0 if quick else scale
        self.quick = quick
        self.sizes: Dict[str, int] = {}

    def peers(self, count: int) -> int:
        return max(32, count // 20) if self.quick else count

    def build_env(self) -> None:
        config = (
            small_experiment_config(CORPUS_SEED)
            if self.quick
            else paper_experiment_config(CORPUS_SEED)
        )
        self.env = build_environment(config)
        self.corpus = self.env.corpus
        self.train = list(self.env.train.queries)
        self.probe_queries = list(self.env.test.queries)
        self.qrels = self.env.test.qrels
        self.central = self.env.centralized_rankings(self.probe_queries)
        self.sizes.update(
            documents=len(self.corpus),
            train_queries=len(self.train),
            test_queries=len(self.probe_queries),
        )

    def new_system(self, peers: int, sprite: SpriteConfig | None = None, transport=None):
        return SpriteSystem(
            self.corpus,
            sprite_config=sprite,
            chord_config=ChordConfig(num_peers=peers, seed=self.seed),
            transport=transport,
        )

    def probe(self, system):
        """The untimed verification pass: rank the probe queries without
        touching the query caches, checksum the rankings and take the
        paper's Figure 4 unit — precision at 20 relative to centralized."""
        rankings = {
            q.query_id: system.search(q, cache=False) for q in self.probe_queries
        }
        relative = relative_to_centralized(rankings, self.central, self.qrels, 20)
        return rankings, ranking_checksum(rankings), relative.precision_ratio

    def finish(
        self,
        system,
        *,
        setup_s: float,
        ring_s: float,
        traffic: Traffic,
        ops: int,
        failed: int,
        stream_s: float,
        op_p50_us: float,
        gates: Optional[Dict[str, object]] = None,
        forbidden: Sequence[str] = (),
        detail: Optional[Dict[str, List[float]]] = None,
        tails: Optional[Dict[str, Dict[str, object]]] = None,
        layer_extras: Optional[Dict[str, float]] = None,
        errors: Sequence[str] = (),
    ) -> Repetition:
        """Probe the system and assemble the readout every workload
        shares.  *forbidden* are documents that must not rank."""
        rankings, checksum, precision = self.probe(system)
        errors = list(errors)
        barred = set(forbidden)
        if barred and any(e.doc_id in barred for ranked in rankings.values() for e in ranked):
            errors.append("withdrawn documents still rank")
        return Repetition(
            setup_s=setup_s,
            ops=ops,
            failed=failed,
            ops_per_s=ops / stream_s,
            op_p50_us=op_p50_us,
            msgs_per_op=traffic.msgs / ops,
            bytes_per_op=traffic.bytes / ops,
            precision_ratio_at_20=precision,
            gates={
                "ranking_checksum": checksum,
                "precision_ratio_at_20": precision,
                "msgs": traffic.msgs,
                **(gates or {}),
            },
            layer_extras={
                "dht.membership.ring_build_s": ring_s,
                "dht.lookup.route_cache_hit_rate": traffic.hit_rate,
                **(layer_extras or {}),
            },
            detail=detail or {},
            tails=tails or {},
            errors=errors,
        )

    def prepare(self) -> None:
        raise NotImplementedError

    def repetition(self, meter: Meter) -> Repetition:
        raise NotImplementedError

    def stream_hash(self) -> str:
        """sha256 of the generated inputs' order — same seed, same hash."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class QuerySteady(Workload):
    name = "query_steady"
    why = (
        "Read path on a trained index with a warm route cache: scoring, top-k and "
        "posting fetch dominate and routing is a small share, so a query-side "
        "change shows here and a write-side change does not."
    )

    def prepare(self) -> None:
        self.build_env()
        rng = random.Random(self.seed)
        ranked = list(self.probe_queries)
        rng.shuffle(ranked)  # the popularity order
        sampler = ZipfSampler(ranked, 0.5)
        self.warm = sampler.sample_many(rng, scaled(2000, self.scale))
        self.stream = sampler.sample_many(rng, scaled(8000, self.scale))
        self.num_peers = self.peers(2000)
        self._system = None
        self.sizes.update(
            peers=self.num_peers, warmup_queries=len(self.warm), queries=len(self.stream)
        )

    def stream_hash(self) -> str:
        return hashlib.sha256(
            ",".join(q.query_id for q in self.warm + self.stream).encode()
        ).hexdigest()

    def _trained(self):
        """The trained, warmed system.  Training costs more than a timed
        block and queries change nothing a later block can see (only the
        bounded per-peer query caches), so the repetitions of a run share
        one system; every block must still reproduce the gates."""
        if self._system is None:
            setup = Meter()
            system, ring_s = setup.call(self.new_system, self.num_peers)
            setup.call(system.bulk_share)
            setup.call(system.register_queries, self.train)
            setup.call(system.run_learning)
            setup.call(lambda: [system.search(q) for q in self.warm])
            self._system = (system, ring_s, setup.norm_s)
        return self._system

    def repetition(self, meter: Meter) -> Repetition:
        system, ring_s, setup_s = self._trained()
        run = _query_op(system)
        traffic = Traffic(system.ring)
        with traffic:
            result = meter.stream([("query", run, q) for q in self.stream], chunk=128)
        summary = latency_summary(result.latencies)
        errors = []
        if max(system.learning_summary().values()) <= SpriteConfig().initial_terms:
            errors.append("learning did not grow any index-term set")
        return self.finish(
            system,
            setup_s=setup_s,
            ring_s=ring_s,
            traffic=traffic,
            ops=len(self.stream),
            failed=result.failed,
            stream_s=result.norm_s,
            op_p50_us=summary["p50"],
            gates={"index_checksum": _index_checksum(system, self.corpus.doc_ids)},
            # Present only when ten samples lie beyond the 99th percentile.
            detail={"query_p99_us": [summary["p99"]]} if "p99" in summary else {},
            tails=_tails(result, "query"),
            errors=errors,
        )


# ---------------------------------------------------------------------------


class IngestCold(Workload):
    name = "ingest_cold"
    why = (
        "Write path with a cold route cache: raw text through analysis, top-F "
        "selection, write-batch location, lookups and PUBLISH_BATCH on a large "
        "ring with joins and leaves; no query is scored."
    )

    MEMBERSHIP_EVERY = 400

    def prepare(self) -> None:
        count = scaled(4000, self.scale, floor=60)
        self.corpus, originals, __ = SyntheticTrecCorpus(
            SyntheticCorpusConfig(num_documents=count, seed=CORPUS_SEED)
        ).build()
        self.raw = [(doc.doc_id, doc.text) for doc in self.corpus]
        random.Random(self.seed).shuffle(self.raw)  # the arrival order
        # Probe with the corpus's own expert queries against a centralized
        # index of the same documents.
        self.probe_queries = list(originals.queries)
        self.qrels = originals.qrels
        centralized = CentralizedSystem(self.corpus)
        self.central = {q.query_id: centralized.search(q) for q in self.probe_queries}
        self.num_peers = self.peers(10000)
        self.sizes.update(
            documents=count, peers=self.num_peers, probe_queries=len(self.probe_queries)
        )

    def stream_hash(self) -> str:
        digest = hashlib.sha256()
        for doc_id, text in self.raw:
            digest.update(f"{doc_id}:{len(text)}\n".encode())
        return digest.hexdigest()

    def repetition(self, meter: Meter) -> Repetition:
        setup = Meter()
        system, ring_s = setup.call(self.new_system, self.num_peers)
        ring = system.ring
        rng = random.Random(self.seed + 1)
        joined = [0]

        def share(item):
            system.share_document(Document(item[0], item[1]))

        def membership(__):
            joined[0] += 1
            ring.join(name=f"bench-join-{joined[0]}")
            ring.leave(_idle_peer(system, rng))
            ring.stabilize()

        ops: List[Op] = []
        for index, item in enumerate(self.raw, start=1):
            ops.append(("share", share, item))
            if index % self.MEMBERSHIP_EVERY == 0:
                ops.append(("membership", membership, None))

        traffic = Traffic(ring)
        with traffic:
            result = meter.stream(ops, chunk=64)
        docs = len(self.raw)
        errors = []
        if system.total_published_terms() < docs:
            errors.append("published terms do not cover the ingested documents")
        return self.finish(
            system,
            setup_s=setup.norm_s,
            ring_s=ring_s,
            traffic=traffic,
            ops=docs,
            failed=result.failed,
            stream_s=result.norm_s,
            op_p50_us=_p50_us(result.of_kind("share")),
            gates={"index_checksum": _index_checksum(system, [d for d, __ in self.raw])},
            tails=_tails(result, "share"),
            errors=errors,
        )


# ---------------------------------------------------------------------------


class LearnCycle(Workload):
    name = "learn_cycle"
    why = (
        "The paper's own mechanism: cache the training queries, then three "
        "learning iterations of polls with closest-hash dedup, Algorithm 1 and "
        "republish; only here do the poll and learning layers work."
    )

    ITERATIONS = 3

    def __init__(self, seed: int, scale: float = 1.0, quick: bool = False) -> None:
        super().__init__(seed, scale, quick)
        # A learning round has a fixed size; --seconds buys repetitions.
        self.repetitions = scaled(2, scale, floor=2)

    def prepare(self) -> None:
        self.build_env()
        # The order the training queries reach the peers' query caches.
        random.Random(self.seed).shuffle(self.train)
        self.num_peers = self.peers(2000)
        self.sizes.update(peers=self.num_peers, iterations=self.ITERATIONS)

    def stream_hash(self) -> str:
        return hashlib.sha256(
            ",".join(q.query_id for q in self.train).encode()
        ).hexdigest()

    def repetition(self, meter: Meter) -> Repetition:
        setup = Meter()
        system, ring_s = setup.call(self.new_system, self.num_peers)
        setup.call(system.bulk_share)

        # run_learning_iteration() is this loop over the live owners; it
        # is driven owner by owner so that each call is short enough for
        # the meter to correct the machine's speed where it changes (as
        # four 1.3 s calls the round spread 10-15 % between runs).
        owners = [o for o in system.owners.values() if system.ring.is_live(o.node_id)]
        owned = [len(owner.shared) for owner in owners]
        ops: List[Op] = [
            ("register", lambda q: system.register_queries([q]), q) for q in self.train
        ]
        for __ in range(self.ITERATIONS):
            ops += [("learn", OwnerPeer.learn_all, owner) for owner in owners]
        traffic = Traffic(system.ring)
        with traffic:
            result = meter.stream(ops, chunk=64)

        docs = len(self.corpus)
        per_document = [
            latency / owned[index % len(owners)]
            for index, latency in enumerate(result.of_kind("learn"))
        ]
        errors = []
        if max(system.learning_summary().values()) <= SpriteConfig().initial_terms:
            errors.append("learning did not grow any index-term set")
        return self.finish(
            system,
            setup_s=setup.norm_s,
            ring_s=ring_s,
            traffic=traffic,
            ops=docs * self.ITERATIONS,
            failed=result.failed,
            stream_s=result.norm_s,
            op_p50_us=_p50_us(per_document),
            gates={"index_checksum": _index_checksum(system, self.corpus.doc_ids)},
            tails=_tails(result, "learn"),
            errors=errors,
        )


# ---------------------------------------------------------------------------


class ChurnMixed(Workload):
    name = "churn_mixed"
    why = (
        "The same layers used differently: reads beside writes beside joins, "
        "leaves and crashes on a lossy network, with replication and maintenance "
        "rounds; a cache that pays on invalidation shows here."
    )

    repetitions = 1
    MIN_POOL = 20

    def prepare(self) -> None:
        self.build_env()
        self.num_peers = self.peers(3000)
        rng = random.Random(self.seed)
        queries = self.probe_queries
        shared = list(self.corpus.doc_ids)
        withdrawn: List[str] = []
        #: (kind, payload): the pool bookkeeping is replayed here, in
        #: set-up, so the timed loop only makes calls.
        self.plan: List[tuple] = []
        count = scaled(4000, self.scale, floor=40)
        # 10 membership events and 2 repair rounds whatever the length.
        membership = count // 10
        repair = membership * 5
        for index in range(1, count + 1):
            draw = rng.random()
            if draw < 0.8:
                self.plan.append(("query", queries[rng.randrange(len(queries))]))
            elif draw < 0.9 and len(withdrawn) >= self.MIN_POOL:
                doc_id = withdrawn.pop(rng.randrange(len(withdrawn)))
                shared.append(doc_id)
                self.plan.append(("share", doc_id))
            else:
                slot = rng.randrange(len(shared))
                shared[slot], shared[-1] = shared[-1], shared[slot]
                doc_id = shared.pop()
                withdrawn.append(doc_id)
                self.plan.append(("unshare", doc_id))
            if index % membership == 0:
                kind = ("join", "leave", "fail")[(index // membership - 1) % 3]
                self.plan.append(("membership", kind))
            if index % repair == 0:
                self.plan.append(("repair", None))
        self.withdrawn_at_end = withdrawn
        self.num_ops = count
        self.sizes.update(
            peers=self.num_peers,
            ops=count,
            membership_every=membership,
            repair_every=repair,
        )

    def stream_hash(self) -> str:
        digest = hashlib.sha256()
        for kind, payload in self.plan:
            label = getattr(payload, "query_id", payload)
            digest.update(f"{kind}:{label}\n".encode())
        return digest.hexdigest()

    def repetition(self, meter: Meter) -> Repetition:
        network = NetworkConfig(
            transport="lossy",
            latency_model="lognormal",
            drop_probability=0.05,
            # Six retries put a lost delivery at 0.05^7: no op fails, and
            # the retry and back-off work still runs on one message in 20.
            max_retries=6,
            keep_trace=False,
            seed=self.seed ^ 0x5EED,
        )
        setup = Meter()
        system, ring_s = setup.call(
            self.new_system, self.num_peers, None, build_transport(network)
        )
        ring = system.ring
        replication = ReplicationManager(ring)
        daemon = MaintenanceDaemon(system)
        setup.call(system.bulk_share)
        setup.call(system.register_queries, self.train)
        setup.call(system.run_learning, 1)
        setup.call(replication.replicate_round)

        rng = random.Random(self.seed + 2)
        virtual_ms: List[float] = []
        corpus = self.corpus
        joined = [0]

        def share(doc_id):
            system.share_document(corpus.get(doc_id))

        def unshare(doc_id):
            system.bulk_unshare([doc_id])

        def membership(kind):
            if kind == "join":
                joined[0] += 1
                ring.join(name=f"bench-join-{joined[0]}")
            elif kind == "leave":
                ring.leave(_idle_peer(system, rng))
            else:
                ring.fail(_idle_peer(system, rng))
            ring.stabilize()
            replication.recover_from_failures()

        def repair():
            replication.replicate_round()
            daemon.run_round()

        calls = {
            "query": _query_op(system, virtual_ms),
            "share": share,
            "unshare": unshare,
            "membership": membership,
        }
        traffic = Traffic(ring)
        stream = StreamResult()
        repairs: List[float] = []
        segment: List[Op] = []

        def run_segment():
            with traffic:
                stream.extend(meter.stream(segment, chunk=64))
            segment.clear()

        for kind, payload in self.plan:
            if kind == "repair":
                run_segment()
                repairs.append(meter.call(repair)[1])
            else:
                segment.append((kind, calls[kind], payload))
        run_segment()

        ordered_ms = sorted(virtual_ms)
        data_ops = [
            latency
            for latency, kind in zip(stream.latencies, stream.kinds)
            if kind != "membership"
        ]
        return self.finish(
            system,
            setup_s=setup.norm_s,
            ring_s=ring_s,
            traffic=traffic,
            ops=self.num_ops,
            failed=stream.failed,
            stream_s=stream.norm_s,
            op_p50_us=_p50_us(data_ops),
            gates={"virtual_ms_total": repr(sum(virtual_ms))},
            forbidden=self.withdrawn_at_end,
            detail={
                "query_p50_us": [_p50_us(stream.of_kind("query"))],
                "share_p50_us": [_p50_us(stream.of_kind("share"))],
                "repair_round_s": [statistics.median(repairs)],
                "virt_query_p99_ms": [
                    ordered_ms[min(len(ordered_ms) - 1, int(len(ordered_ms) * 0.99))]
                ],
            },
            tails=_tails(stream, "query", "share"),
        )


# ---------------------------------------------------------------------------


class DurableRejoin(Workload):
    name = "durable_rejoin"
    why = (
        "The only workload on the SQLite posting store: bulk share, snapshots, "
        "queries from disk, then crash, replica promotion and snapshot-assisted "
        "rejoin; a store-only change moves this one alone."
    )

    repetitions = 1
    CRASH_PROBES = 40

    def prepare(self) -> None:
        self.build_env()
        self.num_peers = self.peers(500)
        rng = random.Random(self.seed)
        queries = self.probe_queries
        count = scaled(4000, self.scale)
        self.stream = [queries[rng.randrange(len(queries))] for __ in range(count)]
        docs = list(self.corpus.doc_ids)
        rng.shuffle(docs)
        self.withdraw = docs[: len(docs) * 300 // 2500]
        self.cycles = scaled(4, self.scale, floor=2)
        self.sizes.update(
            peers=self.num_peers,
            queries=count,
            withdrawn=len(self.withdraw),
            rejoin_cycles=self.cycles,
        )

    def stream_hash(self) -> str:
        return hashlib.sha256(
            ",".join([q.query_id for q in self.stream] + self.withdraw).encode()
        ).hexdigest()

    def _victim(self, system) -> int:
        """The peer holding the most postings among those that own no
        document (ties to the smallest id)."""
        best, best_postings = -1, -1
        for node_id in system.ring.live_ids:
            if node_id in system.owners:
                continue
            postings = sum(
                slot.indexed_document_frequency
                for slot in system.ring.node(node_id).store.values()
                if isinstance(slot, TermSlot)
            )
            if postings > best_postings:
                best, best_postings = node_id, postings
        return best

    def repetition(self, meter: Meter) -> Repetition:
        SCRATCH.mkdir(exist_ok=True)
        store_dir = tempfile.mkdtemp(prefix="durable-", dir=SCRATCH)
        system = None
        try:
            setup = Meter()
            system, ring_s = setup.call(
                self.new_system,
                self.num_peers,
                SpriteConfig(store_backend="sqlite", store_dir=store_dir),
            )
            return self._run(meter, system, setup.norm_s, ring_s)
        finally:
            if system is not None and system.store_runtime is not None:
                system.store_runtime.close()
            shutil.rmtree(store_dir, ignore_errors=True)

    def _run(self, meter: Meter, system, setup_s: float, ring_s: float) -> Repetition:
        ring = system.ring
        runtime = system.store_runtime
        replication = ReplicationManager(ring)
        recovery = RecoveryManager(ring, runtime)
        errors: List[str] = []
        crash_probes = self.probe_queries[: self.CRASH_PROBES]

        def crash_checksum() -> str:
            return ranking_checksum(
                {q.query_id: system.search(q, cache=False) for q in crash_probes}
            )

        def snapshot_all():
            runtime.flush_retired()
            for node_id in ring.live_ids:
                runtime.snapshots.save_peer(ring.node(node_id))

        def withdraw():
            system.bulk_unshare(self.withdraw)
            replication.replicate_round()

        __, share_s = meter.call(system.bulk_share)
        meter.call(replication.replicate_round)
        # A checkpoint round is 0.1-0.4 s of small file writes, as the disk
        # pleases; three rounds (each a full new generation per peer) give
        # a median and a range to judge it by.
        snapshots = [meter.call(snapshot_all)[1] for __ in range(3)]
        snapshot_bytes = sum(
            path.stat().st_size
            for path in runtime.snapshots.root.rglob("*")
            if path.is_file()
        )

        traffic = Traffic(ring)
        with traffic:
            result = meter.stream(
                [("query", _query_op(system), q) for q in self.stream], chunk=128
            )
        meter.call(withdraw)

        cycles: List[float] = []
        shipped = baseline = 0
        for __ in range(self.cycles):
            victim = self._victim(system)

            def crash_and_promote():
                ring.fail(victim)
                ring.stabilize()
                replication.recover_from_failures()

            before = crash_checksum()
            __, crash_s = meter.call(crash_and_promote)
            promoted = crash_checksum()
            report, rejoin_s = meter.call(recovery.recover_peer, victim)
            rejoined = crash_checksum()
            __, replicate_s = meter.call(replication.replicate_round)
            cycles.append(crash_s + rejoin_s + replicate_s)
            shipped += report.postings_shipped
            baseline += report.full_baseline_postings
            if not (before == promoted == rejoined):
                errors.append(f"acknowledged writes lost across rejoin of peer {victim}")
            if report.postings_shipped > report.full_baseline_postings:
                errors.append("snapshot rejoin shipped more than a full resync")

        stats = runtime.stats()
        return self.finish(
            system,
            setup_s=setup_s,
            ring_s=ring_s,
            traffic=traffic,
            ops=len(self.stream),
            failed=result.failed,
            stream_s=result.norm_s,
            op_p50_us=_p50_us(result.latencies),
            gates={"postings_shipped": shipped, "full_baseline_postings": baseline},
            forbidden=self.withdraw,
            detail={
                "share_docs_per_s": [len(self.corpus) / share_s],
                "snapshot_s": snapshots,
                "rejoin_cycle_s": [statistics.median(cycles)],
            },
            tails=_tails(result, "query"),
            layer_extras={
                "store.snapshot.bytes_written": float(snapshot_bytes),
                "store.sqlite.db_bytes_per_posting": (
                    stats["db_bytes"] / stats["postings"] if stats["postings"] else 0.0
                ),
            },
            errors=errors,
        )


WORKLOADS = {
    cls.name: cls for cls in (QuerySteady, IngestCold, LearnCycle, ChurnMixed, DurableRejoin)
}

