"""Run one workload in this process: the timed pass or the traced pass.

The timed pass measures the end-to-end metrics with nothing patched.
The traced pass runs one untraced and one traced repetition of the same
inputs, so a single run yields the layer budget, the tracing overhead
and the check that tracing changed no output.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional

from .measure import Meter, peak_rss_mb, spread
from .schema import DETAIL, END_TO_END, PER_LAYER
from .trace import Tracer
from .workloads import NOMINAL_SECONDS, WORKLOADS, Repetition, Workload

DEFAULT_SEED = 20070415

#: Share of the traced wall the harness row may take before the budget
#: no longer counts as adding up.
HARNESS_SHARE = 0.05


def _gate_errors(reps: List[Repetition], label: str) -> List[str]:
    """Gates must read the same on every repetition."""
    errors: List[str] = []
    first = reps[0].gates
    for index, rep in enumerate(reps[1:], start=2):
        for name, value in first.items():
            if rep.gates.get(name) != value:
                errors.append(f"{name} differs between {label} 1 and {index}")
    return errors


def _share(layers: Dict[str, object], *names: str) -> float:
    wall = layers["harness.wall_s"]
    return sum(layers.get(f"{name}.self_s") or 0.0 for name in names) / wall  # type: ignore[operator,misc]


def separation_errors(workload: str, layers: Dict[str, object]) -> List[str]:
    """The traced pass must keep the benchmark's power to localise: each
    workload spends its time in the layers it was chosen to stress, the
    layers private to one workload stay idle on the others, and the
    budget adds up."""
    errors: List[str] = []

    def calls(layer: str) -> int:
        return layers.get(f"{layer}.calls") or 0  # type: ignore[return-value]

    if workload == "query_steady":
        if _share(layers, "core.query", "ir.ranking", "core.indexer.read") <= 0.5:
            errors.append("query_steady: query + ranking + read self time <= 50% of wall")
        if _share(layers, "dht.lookup") >= 0.15:
            errors.append("query_steady: dht.lookup self time >= 15% of wall")
    if workload == "ingest_cold":
        if _share(layers, "dht.lookup", "core.indexer.write", "text") <= 0.6:
            errors.append("ingest_cold: lookup + write + text self time <= 60% of wall")
        if calls("core.query"):
            errors.append("ingest_cold: core.query was called in the timed region")
    if (calls("core.indexer.poll") > 0) != (workload == "learn_cycle"):
        errors.append("core.indexer.poll must be called on learn_cycle and only there")
    if (calls("store.sqlite") > 0) != (workload == "durable_rejoin"):
        errors.append("store.sqlite must be called on durable_rejoin and only there")
    if abs(layers["harness.self_s"]) > HARNESS_SHARE * layers["harness.wall_s"]:  # type: ignore[operator,arg-type]
        errors.append(
            f"harness.self_s is more than {HARNESS_SHARE:.0%} of the traced wall"
        )
    return errors


def _end_to_end(prepare_s: float, reps: List[Repetition], walls: List[float]) -> Dict[str, Dict[str, float]]:
    """Median of the repetitions (for detail readouts: of every sample
    the repetitions took) per metric, min and max beside it."""
    metrics = {
        "setup_s": spread([prepare_s + rep.setup_s for rep in reps]),
        "timed_wall_s": spread(walls),
        "peak_rss_mb": spread([peak_rss_mb()]),
    }
    for name in ("ops_per_s", "op_p50_us", "msgs_per_op", "bytes_per_op", "precision_ratio_at_20"):
        metrics[name] = spread([getattr(rep, name) for rep in reps])
    for name in DETAIL:
        values = [sample for rep in reps for sample in rep.detail.get(name, ())]
        if values:
            metrics[name] = spread(values)
    for name, entry in metrics.items():
        entry["unit"] = (END_TO_END.get(name) or DETAIL[name])[0]  # type: ignore[assignment]
    return metrics


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = NOMINAL_SECONDS,
    quick: bool = False,
    trace: bool = False,
    spans_out: Optional[str] = None,
) -> Dict[str, object]:
    """Run workload *name* once; returns its record.

    ``record["correct"]`` is false — and ``record["errors"]`` says why —
    when any output check failed: a gate that differs between
    repetitions or passes, a workload's own verification, or (traced
    pass) a separation assertion.
    """
    workload: Workload = WORKLOADS[name](seed, seconds / NOMINAL_SECONDS, quick)
    setup = Meter()
    __, prepare_s = setup.call(workload.prepare)

    record: Dict[str, object] = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "trace": trace,
        "sizes": workload.sizes,
        "stream_hash": workload.stream_hash(),
    }
    errors: List[str] = []
    reps: List[Repetition] = []
    walls: List[float] = []

    def repeat(tracer: Optional[Tracer] = None) -> Meter:
        gc.collect()  # every repetition starts from the same heap state
        meter = Meter(tracer)
        reps.append(workload.repetition(meter))
        walls.append(meter.norm_s)
        return meter

    if not trace:
        for __ in range(workload.repetitions):
            repeat()
        errors += _gate_errors(reps, "repetition")
        record["repetitions"] = len(reps)
    else:
        repeat()
        tracer = Tracer()
        with tracer.installed():
            meter = repeat(tracer)
        errors += _gate_errors(reps, "pass")
        layers = tracer.summary(meter.raw_s, reps[1].layer_extras)
        layers["trace.overhead_ratio"] = walls[1] / walls[0] - 1.0
        for metric in PER_LAYER:  # extras only another workload reads
            layers.setdefault(metric, 0.0)
        errors += separation_errors(name, layers)
        record["layers"] = layers
        record["trace_missing"] = tracer.missing
        record["trace_broken_hooks"] = tracer.broken_hooks
        if spans_out:
            tracer.dump_spans(spans_out)

    for rep in reps:
        errors += rep.errors
    record["metrics"] = _end_to_end(prepare_s, reps, walls)
    record["tails"] = reps[-1].tails
    record["gates"] = reps[0].gates
    record["attempted"] = sum(rep.ops for rep in reps)
    record["failed"] = sum(rep.failed for rep in reps)
    record["errors"] = errors
    record["correct"] = not errors
    return record


def result_line(record: Dict[str, object]) -> Dict[str, object]:
    """The one JSON object the driver reads: every end-to-end metric on
    the timed pass, every per-layer metric on the traced pass."""
    if record["trace"]:
        layers = record["layers"]
        metrics = {
            name: {"value": layers.get(name) or 0, "unit": unit}  # type: ignore[union-attr]
            for name, (unit, __) in PER_LAYER.items()
        }
    else:
        measured = record["metrics"]
        metrics = {
            name: {"value": measured[name]["value"], "unit": unit}  # type: ignore[index]
            for name, (unit, __, __) in END_TO_END.items()
        }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
