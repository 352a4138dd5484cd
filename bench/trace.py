"""Outside-in layer tracing: timing wrappers installed from this file.

One declarative table, :data:`LAYER_TABLE`, maps ``(import path,
attribute)`` to a layer name.  :class:`Tracer` replaces each attribute
with a wrapper that records a span — ``(layer, start, end, parent, op)``
kept in memory — and puts the original object back on exit.  A layer's
self time is its spans' duration minus the part their child spans cover,
so the layers plus the ``harness`` row sum to the traced wall exactly.

Nothing here may raise because the program changed: a table entry whose
target no longer exists is listed under ``trace.missing`` and its layer
reads ``None``; a count hook that no longer fits a call's shape is
switched off and listed under ``trace.broken_hooks``.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .measure import percentile

#: Signature of a count hook: ``hook(counts, samples, args, result)``.
Hook = Callable[[Dict[str, float], Dict[str, List[float]], tuple, object], None]

#: What a hook may raise when a later change reshapes a call.
_SHAPE_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


# -- count hooks: counts are taken at the boundary the work crosses ----------


def _analyze(counts, samples, args, result):
    counts["_text.tokens"] += len(result)


def _lookup(counts, samples, args, result):
    samples["dht.lookup.hops"].append(result.hops)


def _send(counts, samples, args, result):
    counts["dht.send.msgs"] += 1
    counts["dht.send.bytes"] += args[1].size_bytes


def _deliver(counts, samples, args, result):
    counts["net.transport.retries"] += result.attempts - 1
    counts["net.transport.virtual_ms"] += result.latency_ms
    if not result.ok:
        counts["net.transport.drops"] += 1


def _write_batch(counts, samples, args, result):
    counts["_core.indexer.write.batches"] += 1
    counts["core.indexer.write.postings"] += len(args[2])


def _write_one(counts, samples, args, result):
    counts["core.indexer.write.postings"] += 1


def _fetch_batch(counts, samples, args, result):
    for postings, __ in result[0].values():
        counts["core.indexer.read.postings_returned"] += len(postings)


def _fetch_views(counts, samples, args, result):
    for view in result[0].values():
        counts["core.indexer.read.postings_returned"] += view.indexed_df


def _fetch_one(counts, samples, args, result):
    counts["core.indexer.read.postings_returned"] += len(result[0])


def _poll_batch(counts, samples, args, result):
    for fresh, __ in result[0].values():
        counts["core.indexer.poll.queries_returned"] += len(fresh)


def _poll_term(counts, samples, args, result):
    counts["core.indexer.poll.queries_returned"] += len(result[0])


def _row(prefix: str) -> Hook:
    def hook(counts, samples, args, result):
        counts[prefix + ".rows"] += 1

    return hook


def _point_read(prefix: str) -> Hook:
    def hook(counts, samples, args, result):
        counts["_" + prefix + ".point_reads"] += 1
        if result is None:
            counts["_" + prefix + ".negative_reads"] += 1
        else:
            counts[prefix + ".rows"] += 1

    return hook


def _row_list(prefix: str) -> Hook:
    def hook(counts, samples, args, result):
        counts[prefix + ".rows"] += len(result)

    return hook


def _clone(counts, samples, args, result):
    counts["store.sqlite.rows"] += len(result)


def _execute(counts, samples, args, result):
    execution = result[1]
    counts["core.query.postings_retrieved"] += execution.postings_retrieved
    counts["core.query.candidates"] += execution.candidate_documents


def _select_terms(counts, samples, args, result):
    # args: (document, current index terms, rank list, target size)
    current = set(args[1])
    chosen = set(result)
    counts["core.learning.terms_changed"] += len(chosen ^ current)


def _replicate(counts, samples, args, result):
    counts["dht.replication.postings_copied"] += result


def _maintain(counts, samples, args, result):
    counts["core.maintenance.postings_checked"] += result.postings_checked
    counts["core.maintenance.republished"] += result.postings_republished


def _recover(counts, samples, args, result):
    counts["store.recovery.postings_shipped"] += result.postings_shipped
    counts["store.recovery.full_baseline_postings"] += result.full_baseline_postings


def _store_rows(prefix: str, module: str, cls: str) -> List[Tuple[str, str, str, Optional[Hook]]]:
    """The posting-store interface both backends share."""
    return [
        (module, f"{cls}.add", prefix, _row(prefix)),
        (module, f"{cls}.remove", prefix, _row(prefix)),
        (module, f"{cls}.lookup", prefix, _point_read(prefix)),
        (module, f"{cls}.scoring_lookup", prefix, _point_read(prefix)),
        # rows() is a generator: the span covers its creation only and
        # the consumer is charged for the iteration.
        (module, f"{cls}.rows", prefix, None),
        (module, f"{cls}.impact_rows", prefix, _row_list(prefix)),
    ]


#: ``(import path, attribute, layer, count hook)``.  Module-level
#: functions are patched where they are *called from* (a ``from x import
#: f`` binding is its own attribute).
LAYER_TABLE: List[Tuple[str, str, str, Optional[Hook]]] = [
    ("repro.text.analyzer", "Analyzer.analyze", "text", _analyze),
    ("repro.text.analyzer", "Analyzer.term_frequencies", "text", None),
    ("repro.dht.ring", "ChordRing.lookup", "dht.lookup", _lookup),
    ("repro.dht.ring", "ChordRing.lookup_term", "dht.lookup", None),
    ("repro.dht.ring", "ChordRing.join", "dht.membership", None),
    ("repro.dht.ring", "ChordRing.leave", "dht.membership", None),
    ("repro.dht.ring", "ChordRing.fail", "dht.membership", None),
    ("repro.dht.ring", "ChordRing.stabilize", "dht.membership", None),
    ("repro.dht.ring", "ChordRing.send", "dht.send", _send),
    ("repro.net.transport", "PerfectTransport.deliver", "net.transport", _deliver),
    ("repro.net.transport", "LossyTransport.deliver", "net.transport", _deliver),
    ("repro.core.indexer", "IndexingProtocol.publish_batch", "core.indexer.write", _write_batch),
    ("repro.core.indexer", "IndexingProtocol.unpublish_batch", "core.indexer.write", _write_batch),
    ("repro.core.indexer", "IndexingProtocol.publish", "core.indexer.write", _write_one),
    ("repro.core.indexer", "IndexingProtocol.unpublish", "core.indexer.write", _write_one),
    ("repro.core.indexer", "IndexingProtocol.register_query", "core.indexer.read", None),
    ("repro.core.indexer", "IndexingProtocol.register_query_observing", "core.indexer.read", None),
    ("repro.core.indexer", "IndexingProtocol.fetch_slot_views", "core.indexer.read", _fetch_views),
    ("repro.core.indexer", "IndexingProtocol.fetch_postings_batch", "core.indexer.read", _fetch_batch),
    ("repro.core.indexer", "IndexingProtocol.fetch_postings", "core.indexer.read", _fetch_one),
    ("repro.core.indexer", "IndexingProtocol.probe_slot_versions", "core.indexer.read", None),
    ("repro.core.indexer", "IndexingProtocol.poll_batch", "core.indexer.poll", _poll_batch),
    ("repro.core.indexer", "IndexingProtocol.poll_term", "core.indexer.poll", _poll_term),
    *_store_rows("ir.postings", "repro.ir.postings", "ColumnarPostings"),
    *_store_rows("store.sqlite", "repro.store.sqlite_store", "SqlitePostings"),
    # Beyond the shared interface: the transactional batch insert and the
    # row cloning replication runs through copy.deepcopy.
    ("repro.store.sqlite_store", "SqlitePostings.add_many", "store.sqlite", None),
    ("repro.store.sqlite_store", "SqlitePostings.__deepcopy__", "store.sqlite", _clone),
    ("repro.store.runtime", "StoreRuntime.flush_retired", "store.sqlite", None),
    ("repro.core.query_processing", "QueryProcessor.execute", "core.query", _execute),
    ("repro.ir.ranking", "RankedList.top_k", "ir.ranking", None),
    ("repro.core.owner", "OwnerPeer.share", "core.owner", None),
    ("repro.core.owner", "OwnerPeer.share_bulk", "core.owner", None),
    ("repro.core.owner", "OwnerPeer.unshare", "core.owner", None),
    ("repro.core.owner", "OwnerPeer.unshare_bulk", "core.owner", None),
    ("repro.core.owner", "OwnerPeer.learn_document", "core.learning", None),
    ("repro.core.owner", "OwnerPeer.poll_queries", "core.learning", None),
    ("repro.core.learning", "IncrementalLearner.observe", "core.learning", None),
    ("repro.core.owner", "select_index_terms", "core.learning", _select_terms),
    ("repro.dht.replication", "ReplicationManager.replicate_round", "dht.replication", _replicate),
    ("repro.dht.replication", "ReplicationManager.recover_from_failures", "dht.replication", None),
    ("repro.core.maintenance", "MaintenanceDaemon.run_round", "core.maintenance", _maintain),
    ("repro.store.snapshot", "SnapshotManager.save_peer", "store.snapshot", None),
    ("repro.store.snapshot", "SnapshotManager.load_peer", "store.snapshot", None),
    ("repro.store.recovery", "RecoveryManager.recover_peer", "store.recovery", _recover),
]

#: Every layer the budget has a row for, in reading order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(entry[2] for entry in LAYER_TABLE))


def _resolve(path: str, attribute: str):
    """``(owner, name, raw attribute object)`` of a table target, or
    ``None`` when it no longer exists.  The raw object comes from the
    defining class's ``__dict__`` so descriptors stay intact."""
    try:
        owner = importlib.import_module(path)
    except ImportError:
        return None
    *holders, name = attribute.split(".")
    for holder in holders:
        owner = getattr(owner, holder, None)
        if owner is None:
            return None
    for klass in getattr(owner, "__mro__", (owner,)):
        if name in vars(klass):
            return klass, name, vars(klass)[name]
    return None


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, table=None) -> None:
        self.table = list(LAYER_TABLE if table is None else table)
        #: Spans are recorded only while this is true (the harness turns
        #: it on for exactly its timed regions).
        self.active = False
        #: Per-operation id stamped on every span; the harness bumps it.
        self.op_id = 0
        self.layer: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.op: List[int] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.failed: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.missing: List[str] = []
        self.broken_hooks: List[str] = []
        self._open: List[int] = []
        self._covered: List[float] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, hook: Optional[Hook], label: str) -> Callable:
        tracer = self
        layers, starts, ends, parents, ops = (
            self.layer, self.start, self.end, self.parent, self.op,
        )
        open_spans, covered = self._open, self._covered
        self_s, calls, failed = self.self_s, self.calls, self.failed
        counts, samples = self.counts, self.samples
        state = {"hook": hook}

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(layers)
            parent = open_spans[-1] if open_spans else -1
            layers.append(layer)
            parents.append(parent)
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(index)
            covered.append(0.0)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                starts[index] = t0
                ends[index] = t1
                open_spans.pop()
                duration = t1 - t0
                self_s[layer] += duration - covered.pop()
                if covered:
                    covered[-1] += duration
                # A nested span of the same layer (lookup_term -> lookup)
                # is one call of that layer, not two.
                if parent < 0 or layers[parent] != layer:
                    calls[layer] += 1
                if not ok:
                    failed[layer] += 1
                elif state["hook"] is not None:
                    try:
                        state["hook"](counts, samples, args, result)
                    except _SHAPE_ERRORS:
                        state["hook"] = None
                        tracer.broken_hooks.append(label)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        for path, attribute, layer, hook in self.table:
            label = f"{path}:{attribute}"
            target = _resolve(path, attribute)
            if target is None:
                self.missing.append(label)
                continue
            owner, name, raw = target
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, layer, hook, label))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(raw.__func__, layer, hook, label))
            elif callable(raw):
                patched = self._wrap(raw, layer, hook, label)
            else:
                self.missing.append(label)
                continue
            setattr(owner, name, patched)
            self._installed.append((owner, name, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, raw = self._installed.pop()
            setattr(owner, name, raw)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.active = False
            self.uninstall()

    # -- readout --------------------------------------------------------------

    def live_layers(self) -> set:
        """Layers with at least one table target still in the program."""
        gone = set(self.missing)
        return {
            layer
            for path, attribute, layer, __ in self.table
            if f"{path}:{attribute}" not in gone
        }

    def children_of(self, parent_layer: str, child_layer: str) -> int:
        """Spans of *child_layer* opened directly under *parent_layer*."""
        layers, parents = self.layer, self.parent
        return sum(
            1
            for index, layer in enumerate(layers)
            if layer == child_layer
            and parents[index] >= 0
            and layers[parents[index]] == parent_layer
        )

    def summary(self, wall_s: float, extras: Optional[Dict[str, float]] = None) -> Dict[str, object]:
        """The ``layers`` block.  A layer whose targets are all gone reads
        ``None``; a count no call touched is absent (the caller fills 0);
        the ``harness`` row is what the traced wall has left once every
        layer took its self time."""
        live = self.live_layers()
        layer_names = tuple(dict.fromkeys(entry[2] for entry in self.table))
        out: Dict[str, object] = {}
        for layer in layer_names:
            present = layer in live
            out[f"{layer}.calls"] = self.calls.get(layer, 0) if present else None
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0) if present else None
        counts = self.counts

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        text_s = self.self_s.get("text", 0.0)
        out["text.tokens_per_s"] = ratio(counts["_text.tokens"], text_s)
        hops = sorted(self.samples.get("dht.lookup.hops", ()))
        out["dht.lookup.hops_mean"] = ratio(sum(hops), len(hops))
        out["dht.lookup.hops_p99"] = percentile(hops, 99.0) if hops else 0.0
        out["dht.lookup.failed"] = self.failed.get("dht.lookup", 0)
        # Counts the hooks took, minus the "_" helpers ratios are made of.
        out.update((k, v) for k, v in counts.items() if not k.startswith("_"))
        out["core.indexer.write.lookups_per_batch"] = ratio(
            self.children_of("core.indexer.write", "dht.lookup"),
            counts["_core.indexer.write.batches"],
        )
        out["store.sqlite.negative_read_share"] = ratio(
            counts["_store.sqlite.negative_reads"], counts["_store.sqlite.point_reads"]
        )
        out["core.query.scored_share"] = ratio(
            counts["core.query.candidates"], counts["core.query.postings_retrieved"]
        )
        out.update(extras or {})
        layered = sum(self.self_s.values())
        out["harness.wall_s"] = wall_s
        out["harness.self_s"] = wall_s - layered
        out["trace.spans"] = len(self.layer)
        out["trace.missing"] = len(self.missing)
        return out

    def dump_spans(self, path: str) -> None:
        """Write every span as one JSON line: layer, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(self.layer, self.start, self.end, self.parent, self.op):
                handle.write(json.dumps(row) + "\n")
