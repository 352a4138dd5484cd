"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info        Show the resolved experiment configuration.
fig4a       Reproduce Figure 4(a) (effectiveness vs number of answers).
fig4b       Reproduce Figure 4(b) (effectiveness vs indexed terms).
fig4c       Reproduce Figure 4(c) (query-pattern change).
cost        Index-construction cost comparison.
hops        Chord lookup-hop scaling table.
net         Transport robustness sweep: lookup success, retries, and
            latency percentiles under increasing message-drop rates.
search      Interactive-ish demo: train SPRITE and run ad-hoc keyword
            searches from the command line.
perf        Run the routing sweep (finger arity × peers hop counts), the
            one perf harness the benchmark does not cover.  The tracked
            benchmark itself is ``python3 -m bench`` (BENCHMARK.json).
check       Run the verification harness (repro.sim): execute a scenario
            — randomly generated from a seed, or a named entry of the
            adversarial workload catalogue (``--catalogue flash_crowd``,
            ``--catalogue all``) — checking the invariant catalogue
            between events.

All commands accept ``--small`` (test-sized corpus, seconds) and
``--seed`` (reproducibility), plus the network-model flags
(``--transport lossy --drop 0.1 --latency-model lognormal ...``) that
route every simulated message through :mod:`repro.net`.  ``check``
additionally takes the durable-store flags (``--store-backend sqlite
--store-dir ... --snapshot-dir ... --snapshot-interval N``) selecting
the :mod:`repro.store` backend.
``net``, ``perf`` and ``check --random`` take
``--ring-arity B``, the ring's finger arity
(:class:`~repro.config.ChordConfig` ``finger_arity``: 2, the default, is
Chord; above it a ReCord-style ring, DESIGN.md §8); ``perf`` sweeps a
whole arity × peers grid (``--rings chord,record:8 --peers-grid ...``).
Results print as the same tables the benchmark harness records, plus
ASCII charts of the figure shapes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Dict, List, Optional

from .config import (
    ExperimentConfig,
    LATENCY_MODELS,
    STORE_BACKENDS,
    TRANSPORT_KINDS,
    paper_experiment_config,
    small_experiment_config,
)
from .corpus.relevance import Query
from .exceptions import ConfigurationError
from .evaluation import (
    build_environment,
    build_trained_sprite,
    format_cost,
    format_fig4a,
    format_fig4b,
    format_fig4c,
    run_cost_comparison,
    run_fig4a,
    run_fig4b,
    run_fig4c,
)
from .evaluation.charts import line_chart, ratio_series_from_rows


#: argparse attribute → NetworkConfig field, for flags that map 1:1.
_NETWORK_FLAG_FIELDS = {
    "transport": "transport",
    "drop": "drop_probability",
    "latency_model": "latency_model",
    "latency": "latency_ms",
    "timeout": "timeout_ms",
    "retries": "max_retries",
    "net_seed": "seed",
}


def _given_network_flags(
    args: argparse.Namespace, allow_perfect: bool = False
) -> List[str]:
    """The network flags given on the command line, by name, for a
    command that runs its own network and refuses them; with
    *allow_perfect*, ``--transport perfect`` is not counted."""
    return [
        "--" + attr.replace("_", "-")
        for attr in _NETWORK_FLAG_FIELDS
        if getattr(args, attr) is not None
        and not (allow_perfect and attr == "transport" and args.transport == "perfect")
    ]


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.small:
        config = small_experiment_config(seed=args.seed)
    else:
        config = paper_experiment_config(seed=args.seed)
    overrides = {
        field: getattr(args, attr)
        for attr, field in _NETWORK_FLAG_FIELDS.items()
        if getattr(args, attr, None) is not None
    }
    if overrides:
        config = dataclasses.replace(
            config, network=dataclasses.replace(config.network, **overrides)
        )
    arity = getattr(args, "finger_arity", None)
    if arity is not None:
        if arity < 2:
            raise ConfigurationError("--ring-arity must be >= 2")
        config = dataclasses.replace(
            config, chord=dataclasses.replace(config.chord, finger_arity=arity)
        )
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--small", action="store_true", help="test-sized corpus (runs in seconds)"
    )
    parser.add_argument(
        "--seed", type=int, default=20070415, help="corpus generation seed"
    )
    net = parser.add_argument_group("network model (repro.net)")
    net.add_argument(
        "--transport",
        choices=TRANSPORT_KINDS,
        help="transport implementation (default: perfect — instant, lossless)",
    )
    net.add_argument(
        "--drop", type=float, help="per-attempt message drop probability (lossy)"
    )
    net.add_argument(
        "--latency-model",
        choices=LATENCY_MODELS,
        help="per-attempt latency distribution (lossy)",
    )
    net.add_argument(
        "--latency",
        type=float,
        help="latency in simulated ms (constant value / lognormal median)",
    )
    net.add_argument(
        "--timeout", type=float, help="per-attempt delivery timeout, simulated ms"
    )
    net.add_argument("--retries", type=int, help="max retransmissions per message")
    net.add_argument("--net-seed", type=int, help="transport RNG seed (fault replay)")


def _add_store(parser: argparse.ArgumentParser) -> None:
    """Flags for the durable posting store (repro.store, DESIGN.md §12)."""
    store = parser.add_argument_group("durable store (repro.store)")
    store.add_argument(
        "--store-backend",
        choices=STORE_BACKENDS,
        default="memory",
        help="posting-store backend (default: memory — the in-RAM store)",
    )
    store.add_argument(
        "--store-dir",
        default="",
        help="directory for the SQLite database (default: a self-cleaning "
        "temporary directory)",
    )
    store.add_argument(
        "--snapshot-dir",
        default="",
        help="snapshot root (default: <store-dir>/snapshots)",
    )
    store.add_argument(
        "--snapshot-interval",
        type=int,
        default=0,
        help="checkpoint every N applied scenario events (0 = only "
        "explicit snapshot events)",
    )


def _store_args_error(args: argparse.Namespace) -> Optional[str]:
    """Validation for ``check``'s durable-store flags."""
    if args.store_backend != "sqlite":
        for flag, attr in (
            ("--store-dir", "store_dir"),
            ("--snapshot-dir", "snapshot_dir"),
        ):
            if getattr(args, attr):
                return f"error: {flag} requires --store-backend sqlite\n"
        if args.snapshot_interval:
            return "error: --snapshot-interval requires --store-backend sqlite\n"
    if args.snapshot_interval < 0:
        return "error: --snapshot-interval must be >= 0\n"
    return None


def _add_ring(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ring-arity",
        dest="finger_arity",
        type=int,
        metavar="B",
        help="finger arity of the overlay ring, >= 2: 2 (the default) is "
        "Chord's schedule, a larger B a ReCord-style ring with fewer hops "
        "and more fingers (DESIGN.md §8)",
    )


def _build_env(args: argparse.Namespace, out) -> object:
    config = _config_from_args(args)
    t0 = time.time()
    out.write("building environment...\n")
    env = build_environment(config)
    out.write(
        f"  {len(env.corpus)} documents, {len(env.full_set)} queries "
        f"({time.time() - t0:.1f}s)\n"
    )
    return env


def cmd_info(args: argparse.Namespace, out) -> int:
    config = _config_from_args(args)
    out.write("experiment configuration:\n")
    for section in (
        "corpus",
        "querygen",
        "sprite",
        "chord",
        "workload",
        "network",
    ):
        out.write(f"  [{section}]\n")
        for field_name, value in vars(getattr(config, section)).items():
            out.write(f"    {field_name} = {value}\n")
    return 0


def cmd_fig4a(args: argparse.Namespace, out) -> int:
    env = _build_env(args, out)
    rows = run_fig4a(env)
    out.write(format_fig4a(rows) + "\n\n")
    out.write("precision ratio vs number of answers:\n")
    out.write(line_chart(ratio_series_from_rows(rows, "num_answers")) + "\n")
    return 0


def cmd_fig4b(args: argparse.Namespace, out) -> int:
    env = _build_env(args, out)
    rows = run_fig4b(env)
    out.write(format_fig4b(rows) + "\n")
    return 0


def cmd_fig4c(args: argparse.Namespace, out) -> int:
    env = _build_env(args, out)
    rows = run_fig4c(env)
    out.write(format_fig4c(rows) + "\n\n")
    out.write("precision ratio per learning iteration:\n")
    out.write(line_chart(ratio_series_from_rows(rows, "iteration")) + "\n")
    return 0


def cmd_cost(args: argparse.Namespace, out) -> int:
    env = _build_env(args, out)
    out.write(format_cost(run_cost_comparison(env)) + "\n")
    return 0


def cmd_hops(args: argparse.Namespace, out) -> int:
    import math
    import random

    from .config import ChordConfig
    from .dht import ChordRing

    out.write("  N    mean hops    log2(N)\n")
    for n in (16, 32, 64, 128, 256):
        ring = ChordRing(ChordConfig(num_peers=n, id_bits=32, seed=args.seed))
        rng = random.Random(args.seed)
        hops = [
            ring.lookup(
                ring.random_live_id(rng), rng.randrange(ring.space.size), record=False
            ).hops
            for __ in range(300)
        ]
        out.write(
            f"{n:>4}    {sum(hops) / len(hops):>8.2f}    {math.log2(n):>6.2f}\n"
        )
    return 0


def cmd_net(args: argparse.Namespace, out) -> int:
    """Sweep message-drop rates over a bare ring: for each rate, run a
    batch of random lookups through a fresh seeded lossy transport and
    report success counts, hop statistics, retry totals, and latency
    percentiles — the robustness curve of the routing layer itself (no
    corpus needed), on a ring of ``--ring-arity`` (default Chord)."""
    import random as _random

    from .dht import ChordRing, ring_label
    from .exceptions import NodeFailedError
    from .net import build_transport, percentile

    config = _config_from_args(args)
    try:
        rates = [float(r) for r in args.sweep.split(",") if r.strip()]
    except ValueError:
        out.write(f"error: bad --sweep value {args.sweep!r}\n")
        return 2
    if not rates:
        out.write("error: --sweep names no drop rates\n")
        return 2
    if args.lookups < 1:
        out.write("error: --lookups must be >= 1\n")
        return 2
    # Every rate is validated here, before the first row is printed.
    networks = [
        dataclasses.replace(config.network, transport="lossy", drop_probability=rate)
        for rate in rates
    ]

    out.write(
        f"{config.chord.num_peers} peers "
        f"[{ring_label(config.chord.finger_arity)} ring], "
        f"{args.lookups} lookups per rate, "
        f"latency={config.network.latency_model}, "
        f"timeout={config.network.timeout_ms:.0f}ms, "
        f"retries={config.network.max_retries}\n"
    )
    out.write(
        "drop        ok    failed    retries  hops_mean  hops_p99"
        "  lkp_msgs    p50_ms    p99_ms  p99.9_ms    by category\n"
    )
    for network in networks:
        transport = build_transport(network)
        ring = ChordRing(config.chord, transport=transport)
        rng = _random.Random(args.seed)
        ok = failed = 0
        for __ in range(args.lookups):
            start = ring.random_live_id(rng)
            key = rng.randrange(ring.space.size)
            try:
                ring.lookup(start, key)
                ok += 1
            except NodeFailedError:
                failed += 1
        s = transport.trace.rollup()
        hops = list(ring.stats.lookup_hop_histogram.elements())
        categories = " ".join(
            f"{category}={summary.messages}"
            for category, summary in transport.trace.category_rollup().items()
        )
        out.write(
            f"{network.drop_probability:>4.2f}  {ok:>8}  {failed:>8}  {s.retries:>9}"
            f"  {ring.stats.mean_lookup_hops:>9.2f}  {percentile(hops, 99):>8.0f}"
            f"  {s.lookup_messages:>8}"
            f"  {s.latency_p50_ms:>8.1f}  {s.latency_p99_ms:>8.1f}"
            f"  {s.latency_p99_9_ms:>8.1f}"
            f"    {categories}\n"
        )
    return 0


def cmd_search(args: argparse.Namespace, out) -> int:
    if args.top < 1:
        out.write("error: --top must be >= 1\n")
        return 2
    env = _build_env(args, out)
    out.write("training SPRITE (share + insert queries + learn)...\n")
    system = build_trained_sprite(env)
    terms = tuple(env.corpus.analyzer.analyze_query(" ".join(args.terms)))
    if not terms:
        out.write("error: query is empty after analysis\n")
        return 2
    query = Query("cli", terms)
    ranked = system.search(query, top_k=args.top, cache=False)
    if len(ranked) == 0:
        sample = ", ".join(env.corpus.vocabulary[:8])
        out.write(
            "no results (terms may not be in any document's index).\n"
            f"hint: the synthetic corpus vocabulary starts: {sample}\n"
        )
        return 0
    out.write(f"results for {' '.join(terms)}:\n")
    for entry in ranked:
        out.write(f"  {entry.doc_id}  score={entry.score:.4f}\n")
    return 0


def cmd_report(args: argparse.Namespace, out) -> int:
    """Assemble benchmarks/results/*.txt into one markdown report."""
    from pathlib import Path

    results_dir = Path(args.results)
    if not results_dir.is_dir():
        out.write(f"error: no results directory at {results_dir}\n")
        out.write("run `pytest benchmarks/ --benchmark-only` first\n")
        return 2
    tables = sorted(results_dir.glob("*.txt"))
    if not tables:
        out.write(f"error: no result tables in {results_dir}\n")
        return 2
    sections = ["# SPRITE reproduction — benchmark results\n"]
    for path in tables:
        sections.append(f"## {path.stem}\n")
        sections.append("```")
        sections.append(path.read_text(encoding="utf-8").rstrip())
        sections.append("```\n")
    report = "\n".join(sections)
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
        out.write(f"wrote {args.output} ({len(tables)} sections)\n")
    else:
        out.write(report)
    return 0


def memory_usage() -> Dict[str, int]:
    """Process memory snapshot, cheap enough for phase boundaries.

    ``rss_kb``
        Current resident set size from ``/proc/self/status`` (0 where
        procfs is unavailable).
    ``peak_rss_kb``
        Lifetime peak RSS from ``getrusage`` (kilobytes; macOS reports
        bytes and is converted).  Monotone per process.
    ``allocated_blocks``
        Live CPython allocation count (:func:`sys.getallocatedblocks`)
        — a deterministic allocation gauge that, unlike RSS, moves even
        when the allocator never returns pages to the OS.
    """
    peak_kb = 0
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":
            peak_kb //= 1024
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        peak_kb = 0
    rss_kb = 0
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    rss_kb = int(line.split()[1])
                    break
    except (OSError, ValueError):  # pragma: no cover - no procfs
        rss_kb = 0
    # ru_maxrss is sampled by the kernel and can trail VmRSS by a few
    # pages right after an allocation spike; clamp so "peak" is never
    # reported below "current".
    return {
        "rss_kb": rss_kb,
        "peak_rss_kb": max(peak_kb, rss_kb),
        "allocated_blocks": sys.getallocatedblocks(),
    }


def _write_memory_line(out) -> None:
    """The sweep's closing memory summary."""
    usage = memory_usage()
    out.write(
        f"  memory: peak RSS {usage['peak_rss_kb'] / 1024:.1f} MB · "
        f"current RSS {usage['rss_kb'] / 1024:.1f} MB · "
        f"{usage['allocated_blocks']} live allocations\n"
    )


def _parse_grid(raw: str, cast, flag: str):
    """Parse a comma-separated CLI grid (``--peers-grid 1000,4000``)."""
    try:
        values = tuple(cast(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigurationError(f"bad {flag} value {raw!r}")
    if not values or any(v <= 0 for v in values):
        raise ConfigurationError(f"{flag} needs positive comma-separated values")
    return values


def cmd_perf(args: argparse.Namespace, out) -> int:
    """Run the arity × peers routing sweep (DESIGN.md §8)."""
    from .dht import ring_label
    from .perf.route import (
        route_paper_config,
        route_smoke_config,
        run_route_workload,
    )

    # The sweep measures the in-process routing path on the perfect
    # transport: every network flag but --transport perfect would be
    # ignored, so each one given is refused by name.
    given = _given_network_flags(args, allow_perfect=True)
    if given:
        out.write(
            "error: the perf sweep runs on the perfect transport; "
            f"drop {' '.join(given)}\n"
        )
        return 2
    _config_from_args(args)  # validates --ring-arity
    if args.rings and args.finger_arity is not None:
        out.write(
            "error: pass exactly one ring source: --rings GRID or --ring-arity B\n"
        )
        return 2
    cfg = route_smoke_config() if args.small else route_paper_config()
    overrides = {"seed": args.seed, "workers": args.workers}
    if args.rings:
        overrides["ring_specs"] = (args.rings,)
    elif args.finger_arity is not None:
        overrides["ring_specs"] = (ring_label(args.finger_arity),)
    if args.peers_grid:
        overrides["peers_grid"] = _parse_grid(args.peers_grid, int, "--peers-grid")
    cfg = cfg.replaced(**overrides)  # validates: errors precede the header
    out.write(
        f"route sweep: peers {','.join(str(p) for p in cfg.peers_grid)} × "
        f"rings {','.join(cfg.ring_specs)}, {cfg.num_queries} queries/cell, "
        f"churn every {cfg.churn_every}, {cfg.workers} workers\n"
    )
    result = run_route_workload(cfg)
    if args.json:
        out.write(json.dumps(result.to_dict(), indent=2) + "\n")
        return 0 if result.checksums_match else 1
    out.write(result.summary_table() + "\n")
    if "chord" in result.rings:
        for peers in result.peers_grid:
            for ring in result.rings:
                if ring == "chord":
                    continue
                out.write(
                    f"  {ring} vs chord @ {peers} peers: "
                    f"{result.hop_reduction(peers, ring):.1%} fewer mean hops\n"
                )
    out.write(f"  wall {result.wall_s:.2f}s\n")
    _write_memory_line(out)
    return 0 if result.checksums_match else 1


def _cmd_check_catalogue(args: argparse.Namespace, out) -> int:
    """Run named adversarial-catalogue scenarios (DESIGN.md §14) and
    print each run's invariant verdict plus its quality-under-stress
    readouts.  Exit 1 if any run violates an invariant or fails to end
    quiescent."""
    from .sim import CATALOGUE, report_record, run_catalogue

    names = sorted(CATALOGUE) if args.catalogue == "all" else [args.catalogue]
    unknown = [name for name in names if name not in CATALOGUE]
    if unknown:
        out.write(
            f"error: unknown catalogue scenario {unknown[0]!r} "
            f"(choose from {', '.join(sorted(CATALOGUE))}, or 'all')\n"
        )
        return 2
    failed = False
    records = {}
    for name in names:
        entry = CATALOGUE[name]
        out.write(
            f"[{name}] {entry.description} "
            f"(seed={args.seed}, {args.peers} peers, "
            f"{entry.transport} transport)\n"
        )
        report = run_catalogue(
            [name], seed=args.seed, num_peers=args.peers
        )[name]
        for line in report.summary_lines():
            out.write("  " + line + "\n")
        records[name] = report_record(report)
        if not report.ok or not report.final_quiescent:
            failed = True
            if report.ok:
                out.write("  NOT QUIESCENT at end of schedule\n")
    if args.json:
        out.write(json.dumps(records, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


def cmd_check(args: argparse.Namespace, out) -> int:
    """Run the repro.sim verification harness.

    Executes a scenario (``--random`` to generate one from ``--seed``,
    or ``--catalogue NAME|all`` to run the adversarial workload
    catalogue) against a micro SPRITE deployment, checking the two-tier
    invariant catalogue between events.  A seed regenerates its schedule
    bit for bit, so a schedule is named by its flags, never saved.  Exit
    code 1 on any invariant violation.
    """
    from .net import build_transport
    from .sim import MIN_RANDOM_EVENTS, build_simulation, random_scenario

    if args.random == bool(args.catalogue):
        out.write("error: pass exactly one of --random or --catalogue NAME\n")
        return 2
    if args.random and args.events < MIN_RANDOM_EVENTS:
        out.write(f"error: --events must be >= {MIN_RANDOM_EVENTS}\n")
        return 2
    error = _store_args_error(args)
    if error:
        out.write(error)
        return 2
    if args.catalogue:
        # Catalogue entries define their own network, ring and store
        # configuration; only --seed/--peers apply.
        given = _given_network_flags(args)
        if args.finger_arity is not None:
            given.append("--ring-arity")
        if args.store_backend != "memory":
            given.append("--store-backend")
        if given:
            out.write(
                "error: --catalogue scenarios define their own engine "
                f"configuration; drop {' '.join(given)}\n"
            )
            return 2
        return _cmd_check_catalogue(args, out)
    config = _config_from_args(args)
    network = config.network
    transport = build_transport(network) if network.transport != "perfect" else None

    durable = args.store_backend == "sqlite"
    scenario = random_scenario(
        seed=args.seed, num_events=args.events, with_store=durable
    )
    out.write(
        f"random scenario: seed={args.seed}, {len(scenario)} events"
        + (" (durable-store events mixed in)\n" if durable else "\n")
    )
    engine = build_simulation(
        seed=args.seed,
        num_peers=args.peers,
        transport=transport,
        snapshot_interval=args.snapshot_interval,
        delta={
            "sprite": {
                "store_backend": args.store_backend,
                "store_dir": args.store_dir,
                "snapshot_dir": args.snapshot_dir,
            },
            "chord": {"finger_arity": config.chord.finger_arity},
        },
    )
    report = engine.run(scenario)
    for line in report.summary_lines():
        out.write(line + "\n")
    if engine.store_runtime is not None:
        stats = engine.store_runtime.stats()
        out.write(
            f"store: {stats['postings']} postings in {stats['live_slots']} "
            f"live slots · db {stats['db_bytes']} B · "
            f"{stats['snapshots_saved']} snapshots saved, "
            f"{stats['snapshots_loaded']} loaded · "
            f"{engine.snapshots_taken} checkpoint passes\n"
        )
        for recovery in engine.recovery.log:
            out.write(
                f"  recovery peer {recovery.peer} [{recovery.mode}]: "
                f"{recovery.messages_sent} messages, "
                f"{recovery.postings_shipped} postings shipped "
                f"(full baseline {recovery.full_baseline_messages} / "
                f"{recovery.full_baseline_postings})\n"
            )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPRITE (ICDE 2007) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, extra in (
        ("info", cmd_info, None),
        ("fig4a", cmd_fig4a, None),
        ("fig4b", cmd_fig4b, None),
        ("fig4c", cmd_fig4c, None),
        ("cost", cmd_cost, None),
        ("hops", cmd_hops, None),
    ):
        p = sub.add_parser(name, help=handler.__doc__)
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser(
        "net", help="transport robustness sweep over message-drop rates"
    )
    _add_common(p)
    _add_ring(p)
    p.add_argument(
        "--sweep",
        default="0.0,0.05,0.1,0.2",
        help="comma-separated drop rates to sweep",
    )
    p.add_argument(
        "--lookups", type=int, default=500, help="lookups per drop rate"
    )
    p.set_defaults(handler=cmd_net)

    p = sub.add_parser("search", help="train SPRITE and run one keyword search")
    _add_common(p)
    p.add_argument("terms", nargs="+", help="query keywords")
    p.add_argument("--top", type=int, default=10, help="answers to return")
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser(
        "perf",
        help="run the routing sweep: Chord against ReCord-style finger "
        "schedules over an arity × peers grid (the tracked benchmark is "
        "`python3 -m bench`)",
    )
    _add_common(p)
    p.add_argument("--json", action="store_true", help="print the raw JSON record")
    _add_ring(p)
    route = p.add_argument_group("routing sweep (DESIGN.md §8)")
    route.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes, one grid cell each (results are identical "
        "for any worker count)",
    )
    route.add_argument(
        "--rings",
        default="",
        help="ring-grid spec, comma-separated "
        "(e.g. chord,record:4,record:8; default: the config grid; "
        "mutually exclusive with --ring-arity)",
    )
    route.add_argument(
        "--peers-grid",
        default="",
        help="peer counts, comma-separated (default: the config grid)",
    )
    p.set_defaults(handler=cmd_perf)

    p = sub.add_parser(
        "check", help="run the repro.sim scenario + invariant harness"
    )
    _add_common(p)
    _add_ring(p)
    p.add_argument(
        "--random", action="store_true", help="generate a random scenario from --seed"
    )
    p.add_argument(
        "--catalogue",
        default="",
        metavar="NAME",
        help="run a named adversarial-workload scenario (or 'all'): "
        "flash crowds, hot-term storms, heterogeneous peers, regional "
        "failures, free-riders, flaky responders, corpus turnover "
        "(DESIGN.md §14)",
    )
    p.add_argument(
        "--events", type=int, default=500, help="events in a random scenario"
    )
    p.add_argument("--peers", type=int, default=24, help="ring size for the harness")
    p.add_argument(
        "--json",
        action="store_true",
        help="with --catalogue: also print the per-scenario JSON records",
    )
    _add_store(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser(
        "report", help="bundle benchmarks/results/*.txt into a markdown report"
    )
    p.add_argument(
        "--results", default="benchmarks/results", help="results directory"
    )
    p.add_argument("--output", default="", help="write to this file instead of stdout")
    p.set_defaults(handler=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except ConfigurationError as exc:
        out.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
