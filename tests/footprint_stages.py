"""Peak RSS and the largest allocation sites of one benchmark workload,
stage by stage.

A probe, not a test (pytest collects only ``test_*.py``).  For one
workload of ``python3 -m bench`` it runs ``prepare`` and one repetition
in this process under ``tracemalloc`` and prints ``ru_maxrss`` and the
top allocation sites still held at three points: after ``prepare`` (the
corpus, the query streams and the centralized reference rankings), after
the system build (when the first timed region opens) and after the timed
region (the repetition's probe pass included)::

    python3 tests/footprint_stages.py query_steady --quick
    python3 tests/footprint_stages.py learn_cycle --seed 1 --top 20

It gates nothing.  Tracing holds memory of its own, printed beside each
reading, so ``ru_maxrss`` here reads above the benchmark's
``peak_rss_mb``; the sites are what to compare between two trees.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def report(stage: str, top: int) -> None:
    """Print *stage*'s peak RSS, traced total and largest sites."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        (tracemalloc.Filter(False, tracemalloc.__file__),)
    )
    stats = snapshot.statistics("lineno")
    held = sum(stat.size for stat in stats)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracing_mb = tracemalloc.get_tracemalloc_memory() / 2**20
    print(
        f"== {stage}: ru_maxrss {peak_mb:.1f} MB (tracing's own {tracing_mb:.1f} MB), "
        f"traced {held / 2**20:.1f} MB"
    )
    for stat in stats[:top]:
        frame = stat.traceback[0]
        path = Path(frame.filename)
        where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        print(f"  {stat.size / 2**20:8.2f} MB {stat.count:>9,} blocks  {where}:{frame.lineno}")
    sys.stdout.flush()


def main() -> None:
    # String hashing is randomised per process; pin it as the benchmark does.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    sys.path.insert(0, str(ROOT))
    from bench.__main__ import DEFAULT_SEED
    from bench.measure import Meter
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--quick", action="store_true", help="the benchmark's --quick sizes")
    parser.add_argument("--top", type=int, default=12, help="sites to print per stage")
    args = parser.parse_args()

    tracemalloc.start()
    workload = WORKLOADS[args.workload](args.seed, 1.0, args.quick)
    workload.prepare()
    report("after prepare", args.top)

    stream = Meter.stream
    opened = []

    def first_stream(self, *a, **kw):
        if not opened:
            opened.append(True)
            report("after the system build", args.top)
        return stream(self, *a, **kw)

    Meter.stream = first_stream
    try:
        workload.repetition(Meter())
    finally:
        Meter.stream = stream
    report("after the timed region", args.top)


if __name__ == "__main__":
    main()
