"""Function-level reachability census of ``src/repro``.

A function stays if something the system runs calls it.  This script
runs the repo's entry points (:data:`COMMANDS`) in a temporary copy of
the tree, with every interpreter they start loading the profile hook in
``tests/census_site/``, and folds what the hook recorded against every
function ``src/repro`` defines.  It prints each function no command
entered that :data:`ALLOWLIST` does not excuse, and each allowlist entry
that a command now enters, and exits 1 if there is either (or if a
command fails, since a failed run records too little).

Run it from anywhere, with no arguments::

    python tests/census.py

It needs Python 3.11 (it keys on ``co_qualname``) and takes about
6–8 minutes on two cores.  The copy keeps the worktree's result tables
(``benchmarks/results/*.txt``, the ``BENCH_*.json`` records) as they
are.  Comprehensions, lambdas and ``__repr__`` are left out of the fold.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
HOOK_DIR = Path(__file__).resolve().parent / "census_site"

_PY = sys.executable
_REPRO = (_PY, "-m", "repro")
_BENCHES = (_PY, "-m", "pytest", "--benchmark-disable", "-q", "-p", "no:cacheprovider")

#: ``(extra environment, argv)``, each run from the copy's root with
#: ``src`` on ``PYTHONPATH``.
COMMANDS: List[Tuple[Dict[str, str], Tuple[str, ...]]] = [
    ({}, (_PY, "-m", "bench", "--quick")),
    *(({}, _REPRO + (name, "--small")) for name in ("info", "fig4a", "fig4b", "fig4c", "cost", "hops")),
    ({}, _REPRO + ("net", "--small", "--sweep", "0.0,0.1", "--lookups", "200")),
    ({}, _REPRO + ("search", "--small", "information", "retrieval")),
    ({}, _REPRO + ("perf", "--small")),
    ({}, _REPRO + ("perf", "--small", "--rings", "chord", "--peers-grid", "64")),
    ({}, _REPRO + ("report", "--output", "report.md")),
    *(({}, _REPRO + ("check", "--random", "--seed", seed, "--events", "500")) for seed in "012"),
    ({}, _REPRO + ("check", "--random", "--seed", "3", "--events", "300",
                   "--store-backend", "sqlite", "--snapshot-interval", "25")),
    ({}, _REPRO + ("check", "--random", "--seed", "4", "--events", "300", "--ring-arity", "8")),
    *(({}, _REPRO + ("check", "--catalogue", "all", "--seed", seed)) for seed in "07"),
    *(({}, (_PY, f"examples/{name}.py")) for name in (
        "quickstart", "file_sharing_network", "adaptive_search", "churn_tolerance",
        "network_operations")),
    ({}, (_PY, "examples/reproduce_paper.py", "--small")),
    ({"BENCH_STRESS_SCALE": "smoke", "BENCH_STRESS_ENFORCE": "1"},
     _BENCHES + ("benchmarks/test_bench_stress.py",)),
    ({"BENCH_ROUTE_SCALE": "smoke", "BENCH_ROUTE_ENFORCE": "1"},
     _BENCHES + ("benchmarks/test_bench_route.py",)),
    *(({}, _BENCHES + (f"benchmarks/test_bench_{name}.py",)) for name in (
        "fig4a", "fig4b", "fig4c", "cost", "chord", "churn", "ablation", "learning",
        "transport")),
]

#: A command still running after this long fails the census.
COMMAND_TIMEOUT_S = 1800

#: The kinds of reason an unreached function may stay for; every
#: :data:`ALLOWLIST` reason starts with one of them.
KINDS = (
    "layer-table:",  # a bench/trace.py LAYER_TABLE target (ROADMAP items 1b, 2)
    "protocol-base:",  # an overridden base, a bypassed constructor, a container dunder
    "pool-worker:",  # runs in a forked worker, which exits without atexit
    "untaken-branch:",  # live code calls it on a branch the runs never take
    "open-item:",  # an open ROADMAP item decides it
)

_TRACE = "layer-table: a bench/trace.py LAYER_TABLE target, deleted with its row (ROADMAP 1b)"

#: ``module:qualified name`` -> why it may stay unreached.
ALLOWLIST: Dict[str, str] = {
    "repro.core.indexer:IndexingProtocol.unpublish": _TRACE,
    "repro.core.indexer:IndexingProtocol.fetch_postings_batch": _TRACE,
    "repro.core.indexer:IndexingProtocol.poll_term": _TRACE,
    "repro.dht.ring:ChordRing.lookup_term": _TRACE,
    "repro.core.owner:OwnerPeer.unshare": _TRACE,
    "repro.ir.postings:RamPostings.scoring_lookup": _TRACE,
    "repro.ir.postings:RamPostings.impact_rows": _TRACE,
    "repro.store.sqlite_store:SqlitePostings.scoring_lookup": _TRACE,
    "repro.store.sqlite_store:SqlitePostings.impact_rows": _TRACE,
    "repro.ir.postings:posting_impact": "layer-table: only the LAYER_TABLE targets "
    "RamPostings / SqlitePostings.impact_rows call it (ROADMAP 1b)",
    "repro.net.transport:Transport.deliver": "protocol-base: abstract; "
    "PerfectTransport and LossyTransport override it",
    "repro.net.latency:LatencyModel.sample": "protocol-base: abstract; "
    "every latency model overrides it",
    "repro.dht.messages:Message.__new__": "protocol-base: the hot paths build "
    "messages with tuple.__new__",
    "repro.perf.route:_cell_worker": "pool-worker: runs in the route sweep's "
    "forked workers, which leave through os._exit",
    # Container dunders: deleting one changes truthiness, ``in`` or indexing.
    **dict.fromkeys(
        (
            "repro.core.metadata:QueryResultCache.__len__",
            "repro.corpus.corpus:Corpus.__contains__",
            "repro.corpus.relevance:Qrels.__contains__",
            "repro.corpus.relevance:Qrels.__len__",
            "repro.corpus.relevance:Query.__len__",
            "repro.dht.route_cache:RouteCache.__len__",
            "repro.ir.inverted_index:InvertedIndex.__contains__",
            "repro.ir.ranking:RankedList.__getitem__",
            "repro.net.trace:TraceLog.__len__",
            "repro.store.snapshot:PeerSnapshot.__len__",
        ),
        "protocol-base: a container dunder; deleting it changes truthiness, `in` "
        "or indexing",
    ),
    "repro.core.metadata:QueryCache._evicted": "untaken-branch: the capacity bound; "
    "no indexing peer's query cache fills at query_cache_size = 2000 (ROADMAP 11)",
    "repro.dht.messages:_wrong_counts": "untaken-branch: message() raises it when a "
    "kind gets the wrong number of counts",
    "repro.exceptions:DocumentNotFoundError.__init__": "untaken-branch: the error path "
    "of Corpus.get for an unknown document",
    "repro.exceptions:NodeNotFoundError.__init__": "untaken-branch: the error path of "
    "ChordRing.node for an unknown id",
    "repro.sim.invariants:InvariantChecker._fail": "untaken-branch: records a "
    "violation, which no run has",
    "repro.sim.invariants:InvariantViolation.__str__": "untaken-branch: prints a "
    "violation, which no run has",
    "repro.store.recovery:RecoveryManager._send": "untaken-branch: sends a "
    "recovery's sync messages; no rejoin the runs make has a slot to transfer",
    "repro.perf.route:route_paper_config": "untaken-branch: the sweep's paper "
    "scale, taken by perf without --small and by BENCH_ROUTE_SCALE=paper",
    # The TREC loader: the only path to the paper's own corpus.
    **dict.fromkeys(
        (
            "repro.corpus.trec:iter_ohsumed_documents",
            "repro.corpus.trec:iter_ohsumed_documents.<locals>.flush",
            "repro.corpus.trec:iter_trec_documents",
            "repro.corpus.trec:load_qrels",
            "repro.corpus.trec:load_trec_collection",
            "repro.corpus.trec:load_trec_documents",
            "repro.corpus.trec:load_trec_topics",
            "repro.evaluation.experiment:build_environment_from_collection",
            "repro.corpus.relevance:Qrels.validate_against",
        ),
        "open-item: the TREC loader; ROADMAP 17 decides whether the figures "
        "get a --collection flag or the loader goes",
    ),
    **dict.fromkeys(
        (
            "repro.net.faults:FaultInjector.clear_flaky",
            "repro.net.faults:FaultInjector.clear_slow",
            "repro.net.faults:FaultInjector.slow_nodes",
        ),
        "open-item: the fault-plan edits the lossy differential draws between "
        "deliveries (tests/net/test_lossy_reference.py); ROADMAP 8 decides them",
    ),
}


def module_name(path: Path, src: Path) -> str:
    """``repro.core.indexer`` for ``src/repro/core/indexer.py``."""
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _skipped(qualname: str) -> bool:
    leaf = qualname.rsplit(".", 1)[-1]
    return leaf.startswith("<") or leaf == "__repr__"


def _codes(code) -> Iterator:
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            yield const
            yield from _codes(const)


def _last_line(code) -> int:
    lines = [line for __, __, line in code.co_lines() if line is not None]
    return max([code.co_firstlineno, *lines, *(_last_line(c) for c in _codes(code))])


def functions(path: Path, name: str) -> Dict[Tuple[str, int], Tuple[str, int]]:
    """Every function (and method, nested function, generator) *path*
    defines: ``(qualified name, first line) -> (module:qualified name,
    lines)``.  Class bodies, comprehensions, lambdas and ``__repr__``
    are left out."""
    top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    found = {}
    for code in _codes(top):
        optimized = code.co_flags & 0x1  # CO_OPTIMIZED: a function body
        if optimized and not _skipped(code.co_qualname):
            lines = _last_line(code) - code.co_firstlineno + 1
            found[(code.co_qualname, code.co_firstlineno)] = (f"{name}:{code.co_qualname}", lines)
    return found


def universe(src: Path) -> Dict[Tuple[str, str, int], Tuple[str, int]]:
    """:func:`functions` over every module under *src*, keyed by
    ``(file relative to src, qualified name, first line)``."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        where = path.relative_to(src).as_posix()
        for (qualname, line), value in functions(path, module_name(path, src)).items():
            found[(where, qualname, line)] = value
    return found


def read_records(directory: Path, src: Path) -> Set[Tuple[str, str, int]]:
    """What the hook wrote: ``(file relative to src, qualified name,
    first line)`` for every code object entered."""
    reached = set()
    for record in directory.glob("*.tsv"):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, first, qualname = line.split("\t")
            where = Path(filename).resolve().relative_to(src.resolve()).as_posix()
            reached.add((where, qualname, int(first)))
    return reached


def fold(
    defined: Dict[tuple, Tuple[str, int]], reached: Iterable[tuple], allowlist: Dict[str, str]
) -> Tuple[List[Tuple[str, int]], List[str]]:
    """``(unreached, stale)``: the ``(name, lines)`` of every function in
    *defined* that *reached* misses and *allowlist* does not name, and
    every allowlisted name none of whose functions is unreached (or that
    names no function at all)."""
    missed = [defined[key] for key in defined.keys() - set(reached)]
    unreached = sorted((name, lines) for name, lines in missed if name not in allowlist)
    excused = {name for name, __ in missed}
    stale = sorted(name for name in allowlist if name not in excused)
    return unreached, stale


def _run(copy: Path, env: Dict[str, str], argv: Tuple[str, ...]) -> Tuple[str, int, str]:
    command = " ".join(argv)
    try:
        done = subprocess.run(
            argv, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return command, -1, f"no exit after {COMMAND_TIMEOUT_S} s"
    return command, done.returncode, done.stdout


def main() -> int:
    if sys.version_info < (3, 11):
        print("the census needs Python >= 3.11 (co_qualname)")
        return 2
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        copy = Path(scratch) / "tree"
        records = Path(scratch) / "records"
        records.mkdir()
        shutil.copytree(
            ROOT,
            copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".bench_scratch", ".pytest_cache", ".hypothesis",
                ".benchmarks", "*.egg-info",
            ),
        )
        src = copy / "src"
        base = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(HOOK_DIR), str(src)]),
            CENSUS_OUT=str(records),
            CENSUS_SRC=str(src / "repro") + os.sep,
        )
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(
                pool.map(lambda job: _run(copy, dict(base, **job[0]), job[1]), COMMANDS)
            )
        failed = [(command, code, output) for command, code, output in runs if code]
        for command, code, output in failed:
            print(f"FAILED ({code}): {command}\n{output[-2000:]}")
        defined = universe(src)
        unreached, stale = fold(defined, read_records(records, src), ALLOWLIST)
    for name, lines in unreached:
        print(f"unreached  {lines:4d}  {name}")
    for name in stale:
        print(f"stale allowlist entry (reached, or no such function): {name}")
    print(
        f"{len(defined)} functions, {len(COMMANDS)} commands; "
        f"{len(unreached)} unreached outside the allowlist "
        f"({sum(lines for __, lines in unreached)} lines), "
        f"{len(ALLOWLIST)} allowlisted, {len(stale)} stale, {len(failed)} failed commands"
    )
    return 1 if unreached or stale or failed else 0


if __name__ == "__main__":
    sys.exit(main())
