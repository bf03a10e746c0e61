#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig10-ensemble --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` is the separate traced run
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it are the run record and, for a traced run, the full
per-layer table (with absent metrics and their reasons).  The exit code
is 0 only when every output passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
os.environ.setdefault("REPRO_CKERNEL_CACHE", str(ROOT / ".perfbench-work" / "ckernel"))

#: Set-up is repeated in fresh interpreters this many times per run and
#: the median reported (the serve set-up boots a server, so fewer).
SETUP_REPEATS = {"fig10-ensemble": 5, "sparse-campaign": 5, "serve-mixed": 3}


def _workloads() -> dict:
    from perfbench import fig10, serve_mixed, sparse

    return {
        "fig10-ensemble": fig10,
        "sparse-campaign": sparse,
        "serve-mixed": serve_mixed,
    }


def _probe(name: str) -> int:
    """Set up ``name`` as a fresh process would, say ``ready``, tear down."""
    from perfbench.common import remove_run_root

    try:
        cleanup = _workloads()[name].setup_probe()
        print("ready", flush=True)
        if cleanup is not None:
            cleanup()
    finally:
        remove_run_root()
    return 0


def _select(names: list[str], table: dict, kind: str) -> dict:
    chosen = {}
    for name in names:
        row = table.get(name)
        if row is None or not isinstance(row.get("value"), (int, float)):
            raise SystemExit(f"error: {kind} metric {name!r} was not measured")
        chosen[name] = {"value": row["value"], "unit": row["unit"]}
    return chosen


def main(argv: list[str] | None = None) -> int:
    """Run the command line, then stop every process the run started
    (and any it orphaned) and wait for each, on every way out."""
    from perfbench.procs import adopt_orphans, stop_all

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    adopt_orphans()
    try:
        return _main(argv)
    finally:
        stop_all()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = _workloads()
    if args.setup_probe:
        return _probe(args.setup_probe)
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]

    from perfbench.common import WORK, remove_run_root, time_setup
    from perfbench.record import environment
    from perfbench.speed import MAIN_CPU, Speedometer, pinned

    WORK.mkdir(parents=True, exist_ok=True)
    module = workloads[args.workload]
    speed = Speedometer()
    try:
        with pinned({MAIN_CPU}):
            setup_samples = time_setup(args.workload, SETUP_REPEATS[args.workload])
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        speed.stop()
        remove_run_root()
    outcome.finish(speed, setup_samples, {MAIN_CPU})
    outcome.record.update(
        environment(ROOT, args.workload, args.seed, why, outcome.record.get("pool_width", 1))
    )
    outcome.record["trace"] = args.trace
    outcome.record["problems"] = outcome.problems

    if args.trace:
        outcome.layers.complete(args.workload)
        recorder = outcome.recorder
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        recorder.write(trace_path, {"workload": args.workload, "seed": args.seed})
        outcome.record["trace_file"] = str(trace_path.relative_to(ROOT))
        print("layers " + json.dumps(outcome.layers.rows, sort_keys=True))
        metrics = _select([m["name"] for m in bench["per_layer"]], outcome.layers.rows, "per-layer")
    else:
        metrics = _select([m["name"] for m in bench["end_to_end"]], outcome.metrics, "end-to-end")
    print("record " + json.dumps(outcome.record, sort_keys=True, default=str))
    for name, row in sorted(outcome.metrics.items()):
        print(f"  {name:<22} {row['value']:>14.6g} {row['unit']}")
    correct = outcome.failed == 0 and not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
