"""Timing, statistics and checksum helpers shared by every workload.

Reference-normalised time
-------------------------
The sizing box is a two-core VM whose effective speed moves by up to 2x
over seconds (a fixed pure-Python loop reads 0.145 s in one second and
0.28 s in the next; ``process_time`` moves with it, so it is not steal
the kernel accounts for).  Raw wall-clock medians of back-to-back runs of
unchanged code then differ by 30 %, wider than any bound a benchmark may
set.  Every wall-clock number this package reports is therefore divided
by the duration of a fixed reference kernel run right before and after
the measured region and multiplied by :data:`REFERENCE_S`, the kernel's
duration on the idle sizing box — "microseconds on an idle reference
box".  Op streams are cut into chunks of a few tens of milliseconds with
a kernel run between chunks, so a speed change is corrected where it
happens; a single long call is corrected by the mean of the two runs
around it.  Raw seconds are kept beside every normalised value.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError

#: Duration of :func:`reference_kernel` on the idle sizing box (python
#: 3.11, 2.1 GHz Xeon VM).  Only a unit: changing it rescales every time.
REFERENCE_S = 0.0009

#: Percentiles a tail readout may name, lowest first.
TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99)


def reference_kernel() -> float:
    """Run the fixed reference kernel once; returns its wall seconds.

    Dict updates, integer arithmetic and a method call per step — the
    interpreter work the simulator itself is made of, so the kernel
    slows down with the machine the way the measured code does."""
    t0 = perf_counter()
    table: Dict[int, int] = {}
    get = table.get
    for i in range(9000):
        key = i & 1023
        table[key] = get(key, 0) + i
    return perf_counter() - t0


def _settled_kernel() -> float:
    return statistics.median(reference_kernel() for __ in range(5))


@dataclass
class StreamResult:
    """Per-op readout of one timed op stream."""

    #: Normalised seconds per op, in stream order.
    latencies: List[float] = field(default_factory=list)
    #: Kind label per op, parallel to :attr:`latencies`.
    kinds: List[str] = field(default_factory=list)
    raw_s: float = 0.0
    norm_s: float = 0.0
    failed: int = 0

    def of_kind(self, kind: str) -> List[float]:
        return [l for l, k in zip(self.latencies, self.kinds) if k == kind]

    def extend(self, other: "StreamResult") -> None:
        """Append a later segment of the same stream."""
        self.latencies.extend(other.latencies)
        self.kinds.extend(other.kinds)
        self.raw_s += other.raw_s
        self.norm_s += other.norm_s
        self.failed += other.failed


#: One stream op: (kind label, callable, its single argument).
Op = Tuple[str, Callable, object]


class Meter:
    """Times the measured regions of one repetition.

    ``raw_s``/``norm_s`` accumulate over every region, so a repetition's
    timed wall is the sum of what it measured and nothing else.  With a
    *tracer*, span recording is switched on exactly for those regions —
    the layer budget then has the same denominator as the wall.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.raw_s = 0.0
        self.norm_s = 0.0

    def _record(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.active = on

    def call(self, fn: Callable, *args):
        """Time one long call; returns ``(result, normalised seconds)``.

        Only two readings of the machine's speed bracket the call, so
        each is the median of five kernel runs, not one."""
        before = _settled_kernel()
        self._record(True)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = perf_counter() - t0
            self._record(False)
        after = _settled_kernel()
        norm = raw * REFERENCE_S / ((before + after) / 2.0)
        self.raw_s += raw
        self.norm_s += norm
        return result, norm

    def stream(self, ops: Sequence[Op], chunk: int) -> StreamResult:
        """Run *ops* in order, timing each call from the caller's side.

        An op fails when it raises a :class:`ReproError` or returns
        ``False``; failed ops keep their latency sample and stay in the
        op count.  The chunk wall (loop and clock reads included) is what
        throughput divides by.
        """
        out = StreamResult()
        latencies = out.latencies
        kinds = out.kinds
        tracer = self.tracer
        previous = reference_kernel()
        for lo in range(0, len(ops), chunk):
            part = ops[lo : lo + chunk]
            first = len(latencies)
            self._record(True)
            chunk_t0 = perf_counter()
            for kind, fn, arg in part:
                if tracer is not None:
                    tracer.op_id += 1
                t0 = perf_counter()
                try:
                    ok = fn(arg)
                except ReproError:
                    ok = False
                latencies.append(perf_counter() - t0)
                kinds.append(kind)
                if ok is False:
                    out.failed += 1
            raw = perf_counter() - chunk_t0
            self._record(False)
            following = reference_kernel()
            factor = REFERENCE_S / ((previous + following) / 2.0)
            previous = following
            for i in range(first, len(latencies)):
                latencies[i] *= factor
            out.raw_s += raw
            out.norm_s += raw * factor
        self.raw_s += out.raw_s
        self.norm_s += out.norm_s
        return out


# -- statistics ---------------------------------------------------------------


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence.  The harness
    keeps its own rather than ``repro.net.percentile``: a change to the
    program must not be able to move the instrument."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[min(len(sorted_values), int(rank)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` that still leaves at
    least ten of *count* samples beyond it (``None`` below 100)."""
    best = None
    for pct in TAIL_PERCENTILES:
        if round(count * (100.0 - pct), 6) >= 1000.0:
            best = pct
    return best


def latency_summary(samples: Iterable[float]) -> Dict[str, object]:
    """Of latencies in seconds: the median, p99 where ten samples lie
    beyond it, and the highest percentile with ten samples beyond it,
    all in microseconds."""
    scale = 1e6
    ordered = sorted(samples)
    summary: Dict[str, object] = {"samples": len(ordered)}
    if not ordered:
        return summary
    summary["p50"] = percentile(ordered, 50.0) * scale
    tail = tail_percentile(len(ordered))
    if tail is not None:
        summary["tail_percentile"] = tail
        summary["tail"] = percentile(ordered, tail) * scale
        if tail >= 99.0:
            summary["p99"] = percentile(ordered, 99.0) * scale
    return summary


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median with the min and max recorded beside it."""
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# -- outputs --------------------------------------------------------------------


def ranking_checksum(rankings: Dict[str, object]) -> str:
    """sha256 over ``(query_id, doc_id, repr(score))`` in query-id and
    rank order — equal only when documents, scores and tie order are."""
    digest = hashlib.sha256()
    for query_id in sorted(rankings):
        digest.update(query_id.encode())
        for entry in rankings[query_id]:
            digest.update(f"|{entry.doc_id}:{entry.score!r}".encode())
        digest.update(b"\n")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
