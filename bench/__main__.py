"""``python3 -m bench`` — the one command.

With ``--workload NAME --trace 0|1`` it runs that one pass in this
process and prints, as its last line, the JSON object BENCHMARK.json's
contract asks for.  Without ``--trace`` it runs both passes of all five
workloads (or of ``--workload``), each in a fresh child interpreter one
after the other, prints every metric by name with its unit and the
layer budget, and writes the full record to ``--out``.  Either way the
exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import ROOT
from .run import DEFAULT_SEED, result_line, run_workload
from .trace import LAYERS
from .workloads import NOMINAL_SECONDS, WORKLOADS

DEFAULT_OUT = ".bench_scratch/record.json"


def _pin_hash_seed() -> None:
    """String hashing is randomised per process; pin it so set order —
    and with it timing and peak memory — repeats from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]], env)


def environment() -> Dict[str, object]:
    """Where the numbers were taken."""
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "numpy": has_numpy,
        "loadavg_at_start": os.getloadavg()[0],
    }


def _print_record(record: Dict[str, object]) -> None:
    name = record["workload"]
    print(f"\n== {name} (seed {record['seed']}, sizes {record['sizes']})")
    print(f"   attempted {record['attempted']}  failed {record['failed']}")
    for metric, entry in record["metrics"].items():  # type: ignore[union-attr]
        print(
            f"   {metric:<24} {entry['value']:>14.4f} {entry['unit']:<10}"
            f" [min {entry['min']:.4f}  max {entry['max']:.4f}  n {entry['n']}]"
        )
    for kind, tail in record["tails"].items():  # type: ignore[union-attr]
        if tail["percentile"] is not None:
            print(
                f"   {kind + ' tail':<24} {tail['value']:>14.4f} us"
                f"         [p{tail['percentile']:g} of {tail['samples']} samples]"
            )
    layers = record.get("layers")
    if layers:
        wall = layers["harness.wall_s"]  # type: ignore[index]
        print(f"   layer budget of the traced pass (wall {wall:.4f} s raw,"
              f" tracing overhead {layers['trace.overhead_ratio']:+.1%}):")  # type: ignore[index]
        for layer in (*LAYERS, "harness"):
            self_s = layers.get(f"{layer}.self_s")  # type: ignore[union-attr]
            if self_s is None:
                print(f"     {layer:<22} (no target left in the program)")
                continue
            calls = layers.get(f"{layer}.calls", "")  # type: ignore[union-attr]
            print(f"     {layer:<22} {self_s:>10.4f} s {self_s / wall:>7.1%}  calls {calls}")
        extras = {
            k: v for k, v in layers.items()  # type: ignore[union-attr]
            if not k.endswith((".calls", ".self_s")) and not k.startswith(("harness.", "trace."))
        }
        for key in sorted(extras):
            print(f"     {key:<40} {extras[key]:.6g}")
    for error in record["errors"]:  # type: ignore[union-attr]
        print(f"   FAILED: {error}")


def _child(args: argparse.Namespace, workload: str, trace: int, out: Path) -> Optional[Dict[str, object]]:
    command = [
        sys.executable, "-m", "bench",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(out),
    ]
    if args.quick:
        command.append("--quick")
    if trace and args.spans_out:
        command += ["--spans-out", f"{args.spans_out}.{workload}.jsonl"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    if not out.exists():
        print(f"\n== {workload}: pass trace={trace} exited {done.returncode} without a record")
        return None
    record = json.loads(out.read_text())
    out.unlink()
    return record


def run_all(args: argparse.Namespace) -> int:
    """Every workload, timed then traced, one child at a time."""
    out = Path(args.out or DEFAULT_OUT)
    out.parent.mkdir(parents=True, exist_ok=True)
    scratch = out.with_suffix(".part.json")
    full: Dict[str, object] = {"environment": environment(), "workloads": {}}
    ok = True
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        timed = _child(args, name, 0, scratch)
        traced = _child(args, name, 1, scratch)
        if timed is None or traced is None:
            ok = False
            continue
        if timed["gates"] != traced["gates"]:
            timed["errors"].append("gates differ between the timed and the traced pass")  # type: ignore[union-attr]
            timed["correct"] = False
        timed["layers"] = traced["layers"]
        timed["trace_missing"] = traced["trace_missing"]
        timed["trace_broken_hooks"] = traced["trace_broken_hooks"]
        timed["errors"] += traced["errors"]  # type: ignore[operator]
        timed["correct"] = timed["correct"] and traced["correct"]
        _print_record(timed)
        full["workloads"][name] = timed  # type: ignore[index]
        ok = ok and bool(timed["correct"])
    out.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(f"\nrecord written to {out}; {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def run_one(args: argparse.Namespace) -> int:
    record = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        quick=args.quick,
        trace=bool(args.trace),
        spans_out=args.spans_out,
    )
    if args.out:
        record["environment"] = environment()
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    _print_record(record)
    print(json.dumps(result_line(record)))
    return 0 if record["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run only this workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(NOMINAL_SECONDS),
                        help="measuring time the op counts are scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: run one pass in this process (0 timed, "
                             "1 traced) and end with the driver's JSON line")
    parser.add_argument("--quick", action="store_true",
                        help="small environment and every count / 20")
    parser.add_argument("--out", help=f"write the JSON record here (default {DEFAULT_OUT} in full mode)")
    parser.add_argument("--spans-out", help="traced pass: dump every span as JSON lines")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    return run_one(args) if args.trace is not None else run_all(args)


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
