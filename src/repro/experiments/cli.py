"""Command-line interface for the figure reproductions.

Usage::

    repro-sync list
    repro-sync fig04 [--fast]
    repro-sync all --fast
    repro-sync fig10 --jobs 4          # fan seed runs over 4 processes
    repro-sync fig10 --no-cache        # force recomputation
    repro-sync fig10 --resume          # journal + resume interrupted runs
    repro-sync fig10 --engine batch    # batched ensemble engine (same numbers)
    repro-sync bench                   # fig10 + obs rows -> BENCH_parallel.json
    repro-sync bench serve             # one workload -> BENCH_serve.json
    repro-sync serve --port 8793       # run the simulation-serving API
    repro-sync loadgen --clients 8     # seeded load against a running server
    repro-sync cache verify            # audit results/cache/ entries
    repro-sync cache repair            # quarantine corrupt, sweep stale tmp
    repro-sync cache clear             # drop every cached result
    repro-sync claims list             # inventory single-flight claim files
    repro-sync claims gc               # prune stale claims + tombstones
    repro-sync campaign run study.toml           # run a parameter study
    repro-sync campaign run study.toml --shard 0/4   # one shard of it
    repro-sync campaign run study.toml --dispatch serve --endpoints host:8793
    repro-sync campaign status study.toml --shard 0/4    # progress per shard
    repro-sync campaign report study.toml -o report.json # tables from cache
    repro-sync campaign shard study.toml --shard 0/4     # shard manifest
    repro-sync campaign report study.toml --plot         # ASCII curves
    repro-sync predict build table-spec.toml     # campaign -> prediction table
    repro-sync predict eval TABLE --point 10,20,0.3,0.1  # one surrogate answer
    repro-sync predict verify TABLE    # audit bounds on fresh seeds
    repro-sync serve --predict-table TABLE       # enable POST /v1/predict
    repro-sync fig10 --trace results/trace.jsonl   # record a trace
    repro-sync obs summary results/trace.jsonl     # aggregate it
    repro-sync obs export-trace results/trace.jsonl  # -> Perfetto JSON
    repro-sync fig10 --profile         # merged cProfile top-N

(``python -m repro`` is equivalent.)  ``repro-sync COMMAND --help``
lists the flags a command takes; any other flag is a usage error
(exit 2).  Simulation-backed figures cache completed runs under
``results/cache/`` (or ``--cache-root``) keyed by job content, so
re-running a figure is nearly free; results are identical with or
without the cache, at any ``--jobs`` width, and under ``--resume``,
which journals every completed simulation so a run killed mid-way
restarts from where it stopped.  Observability (``repro.obs``:
``--trace``, ``--metrics``, ``--profile``, ``--verbose``/``--quiet``)
is strictly inert: every figure and table is byte-identical with it
on or off.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ..core.engines import resolve_engine
from .registry import PARALLEL_FIGURES, TOPOLOGY_FIGURES, figure_ids, run_figure

__all__ = ["main", "build_parser"]


def _render_plots(result) -> str:
    """ASCII-plot every series of a figure result (metrics first)."""
    from ..analysis.asciiplot import scatter

    lines = [f"== {result.figure_id}: {result.title} =="]
    for key, value in result.metrics.items():
        lines.append(f"  {key}: {value}")
    for name, points in result.series.items():
        numeric = [
            (x, y) for x, y in points
            if isinstance(x, (int, float)) and isinstance(y, (int, float))
        ]
        lines.append("")
        try:
            lines.append(scatter(numeric, title=name))
        except ValueError as error:
            lines.append(f"  [series {name!r} not plottable: {error}]")
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


#: Where serve listens and loadgen connects unless --port says otherwise.
DEFAULT_PORT = 8793


def _positive_int(text: str) -> int:
    """An argparse ``type``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _engine(name: str) -> str:
    """An argparse ``type``: a known engine name, with the shared error."""
    try:
        return resolve_engine(name)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _point(text: str) -> tuple[int, float, float, float]:
    """An argparse ``type``: a predict query point ``N,TP,TC,TR``."""
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"must be N,TP,TC,TR; got {text!r}")
    return int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3])


def _console(line: str) -> None:
    """Progress lines go to stderr, so stdout stays the command's output."""
    print(line, file=sys.stderr, flush=True)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing).

    There is one subparser per command, and each declares only the
    flags its handler reads, so a flag given to the wrong command is a
    usage error.  A flag that several commands share is declared once,
    in one of the functions below.  Given a command name, only that
    command's subparser is built, which is all :func:`main` needs:
    every subparser costs about 10 ms to build, one about 0.5 ms.
    """

    def jobs(sub):
        sub.add_argument(
            "--jobs",
            type=_positive_int,
            metavar="N",
            help=(
                "worker processes for simulation fan-out (default: 1; the "
                "CPU count for 'bench'); results do not depend on this"
            ),
        )

    def engine(sub):
        sub.add_argument(
            "--engine",
            type=_engine,
            metavar="NAME",
            help=(
                "simulation engine: des, cascade (default), or batch; every "
                "engine produces bit-identical results for the same seed"
            ),
        )

    def cache_root(sub):
        sub.add_argument(
            "--cache-root",
            metavar="DIR",
            help="result cache directory (default results/cache)",
        )

    def store(sub):
        sub.add_argument(
            "--no-cache",
            action="store_true",
            help="do not read or write the on-disk result cache",
        )
        sub.add_argument(
            "--resume",
            action="store_true",
            help=(
                "journal completed simulations under results/checkpoints/ "
                "and resume any interrupted run of the same work; pass it "
                "from the start on long runs (results do not depend on this)"
            ),
        )

    def observe(sub):
        sub.add_argument(
            "--trace",
            metavar="PATH",
            help=(
                "record spans/events/metrics and write a JSONL trace log to "
                "PATH after the run (read it back with 'obs'); results do "
                "not depend on this"
            ),
        )
        sub.add_argument(
            "--metrics",
            action="store_true",
            help="collect metrics and print the snapshot to stderr after the run",
        )
        sub.add_argument(
            "--profile",
            action="store_true",
            help=(
                "profile the run under cProfile (merged across worker "
                "processes) and print the top functions to stderr"
            ),
        )
        loudness = sub.add_mutually_exclusive_group()
        loudness.add_argument(
            "--verbose",
            action="store_true",
            help="print info-level structured events (resumes, retries)",
        )
        loudness.add_argument(
            "--quiet",
            action="store_true",
            help="silence warning-level events (errors still print)",
        )

    def plot(sub):
        sub.add_argument(
            "--plot",
            action="store_true",
            help="render each series as an ASCII plot instead of a table",
        )

    def output(sub):
        sub.add_argument(
            "-o",
            "--output",
            metavar="PATH",
            help=(
                "output file (campaign report: the JSON report; obs "
                "export-trace: the Chrome/Perfetto JSON, default the trace "
                "path with a .chrome.json suffix)"
            ),
        )

    def address(sub):
        sub.add_argument(
            "--host",
            default="127.0.0.1",
            help="listen/connect address (default 127.0.0.1)",
        )
        sub.add_argument(
            "--port",
            type=int,
            default=DEFAULT_PORT,
            help=(
                "listen/connect port; 0 asks the OS for a free port "
                f"(default {DEFAULT_PORT})"
            ),
        )

    def server(sub):
        sub.add_argument(
            "--queue-depth",
            type=int,
            default=64,
            metavar="N",
            help=(
                "admission limit — requests beyond N in flight shed with "
                "429 Retry-After (default 64)"
            ),
        )
        sub.add_argument(
            "--deadline",
            type=float,
            metavar="SECONDS",
            help=(
                "per-request deadline; computations that outlive it answer "
                "504 (default: none)"
            ),
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help=(
                "worker processes; >= 2 runs the prefork supervisor (bind "
                "once, crash-respawn, cross-process single-flight; default 1)"
            ),
        )

    def figure(sub):
        sub.add_argument(
            "--fast",
            action="store_true",
            help="use reduced-scale parameters (seconds instead of minutes)",
        )
        sub.add_argument(
            "--max-points",
            type=int,
            default=25,
            help="series points to print per figure (default 25)",
        )
        sub.set_defaults(topology=None)

    def analytic(sub):
        # An analytic figure runs no simulation jobs: there is nothing
        # to fan out, pick an engine for, cache or resume.
        sub.set_defaults(
            jobs=None, engine=None, no_cache=False, resume=False, cache_root=None
        )

    def topology(sub):
        sub.add_argument(
            "--topology",
            metavar="SPEC",
            help=(
                "coupling graph: clique (default), ring, star, tree(b=B), "
                "erdos_renyi(p=P,seed=S), or switching(a|b,period=T); "
                "non-clique couplings are an off-paper what-if"
            ),
        )

    def workload(sub):
        from ..bench import WORKLOADS

        sub.add_argument(
            "action",
            nargs="?",
            default="parallel",
            choices=tuple(WORKLOADS),
            help="the workload (default parallel)",
        )

    def cache_action(sub):
        sub.add_argument(
            "action",
            nargs="?",
            default="verify",
            choices=("verify", "repair", "clear"),
            help="default verify",
        )

    def claims_action(sub):
        sub.add_argument(
            "action",
            nargs="?",
            default="list",
            choices=("list", "gc"),
            help="default list",
        )
        sub.add_argument(
            "--max-age",
            type=float,
            metavar="SECONDS",
            help=(
                "gc: prune claim files/tombstones older than this (default: "
                "the claim TTL)"
            ),
        )

    def campaign_action(sub):
        sub.add_argument("action", choices=("run", "status", "report", "shard"))
        sub.add_argument(
            "path", metavar="SPEC", help="the campaign spec file (.toml or .json)"
        )
        sub.add_argument(
            "--shard",
            default="0/1",
            metavar="K/M",
            help=(
                "run/inspect shard K of M (0-based; default 0/1, the whole "
                "campaign); the shard map is a pure function of the spec, so "
                "any host can claim any shard"
            ),
        )
        sub.add_argument(
            "--dispatch",
            choices=("local", "serve"),
            default="local",
            help=(
                "run: execute on the local process pool (default) or fan out "
                "to serve endpoints (see --endpoints)"
            ),
        )
        sub.add_argument(
            "--endpoints",
            default="127.0.0.1:8793",
            metavar="HOST:PORT[,HOST:PORT...]",
            help=(
                "run --dispatch serve: the serve endpoints to fan out to "
                "(default 127.0.0.1:8793)"
            ),
        )
        sub.add_argument(
            "--chunk-size",
            type=_positive_int,
            metavar="N",
            help=(
                "run: jobs per commit chunk — the most compute a kill can "
                "lose (default 256)"
            ),
        )

    def predict_action(sub):
        sub.add_argument("action", choices=("build", "eval", "verify"))
        sub.add_argument(
            "path",
            metavar="SPEC|TABLE",
            help=(
                "the campaign spec file (build) or a table path / 16-hex "
                "table id (eval, verify)"
            ),
        )
        sub.add_argument(
            "--holdout",
            type=int,
            metavar="N",
            help=(
                "build: seeds per grid point held out of calibration to "
                "measure each cell's bound (default: a quarter of the "
                "spec's seeds, at least 1)"
            ),
        )
        sub.add_argument(
            "--point",
            type=_point,
            metavar="N,TP,TC,TR",
            help="eval: the query point, comma-separated",
        )
        sub.add_argument(
            "--tolerance",
            type=float,
            metavar="X",
            help=(
                "eval: maximum acceptable relative error bound; an answer "
                "whose bound exceeds it reports fallback"
            ),
        )
        sub.add_argument(
            "--fresh-seeds",
            type=int,
            default=4,
            metavar="N",
            help=(
                "verify: fresh seeds per valid cell to audit the bounds "
                "against (default 4)"
            ),
        )

    def obs_action(sub):
        sub.add_argument(
            "action",
            nargs="?",
            default="summary",
            choices=("summary", "export-trace", "top"),
            help="default summary",
        )
        sub.add_argument(
            "path",
            nargs="?",
            default="results/trace.jsonl",
            metavar="TRACE",
            help="the JSONL trace log (default results/trace.jsonl)",
        )

    def prediction(sub):
        sub.add_argument(
            "--predict-table",
            metavar="TABLE",
            help=(
                "load a prediction table (file path or 16-hex id under the "
                "cache root) and answer POST /v1/predict from it; without "
                "this every predict request falls back to simulation"
            ),
        )

    def load(sub):
        sub.add_argument(
            "--clients",
            type=int,
            default=4,
            metavar="N",
            help="concurrent periodic clients (default 4)",
        )
        sub.add_argument(
            "--period",
            type=float,
            default=1.0,
            metavar="TP",
            help="mean request period per client in seconds (default 1)",
        )
        sub.add_argument(
            "--load-jitter",
            type=float,
            default=0.5,
            metavar="TR",
            help=(
                "timer jitter half-width — intervals are uniform in "
                "[TP-TR, TP+TR], the paper's own randomization (default 0.5)"
            ),
        )
        sub.add_argument(
            "--duration",
            type=float,
            default=10.0,
            metavar="SECONDS",
            help="length of the generated schedule (default 10)",
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=1,
            help="seed for the schedule and spec rotation (default 1)",
        )
        sub.add_argument(
            "--real-time",
            action="store_true",
            help=(
                "actually sleep between ticks (threads + wall clock) instead "
                "of replaying the schedule as fast as possible"
            ),
        )
        sub.add_argument(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help=(
                "honor 429/503 Retry-After hints with up to N deterministic "
                "retries per request (default 0: surface backpressure)"
            ),
        )
        sub.add_argument(
            "--chaos",
            action="store_true",
            help=(
                "self-host a prefork fleet (--workers >= 2; cache "
                "results/chaos_cache unless --cache-root), kill and respawn "
                "workers mid-load, inject claim-orphan/crash faults, and "
                "audit the exactly-once claim ledger"
            ),
        )

    def chaos_only(sub):
        # Declared last: None marks "not given" for the flags whose
        # meaning depends on --chaos, which _check_loadgen enforces.
        sub.set_defaults(
            port=None,
            queue_depth=None,
            workers=None,
            check=lambda args: _check_loadgen(args, sub.error),
        )

    figures = [figure, plot, observe]
    simulated = [jobs, engine, store, cache_root]
    table = {
        figure_id: (
            _run_figures,
            figures
            + (simulated if figure_id in PARALLEL_FIGURES else [analytic])
            + ([topology] if figure_id in TOPOLOGY_FIGURES else []),
        )
        for figure_id in figure_ids()
    }
    table.update(
        all=(_run_figures, figures + simulated),
        list=(_run_list, []),
        bench=(_run_bench, [workload, jobs]),
        cache=(_run_cache, [cache_action, cache_root]),
        claims=(_run_claims, [claims_action, cache_root]),
        campaign=(
            _run_campaign,
            [campaign_action, jobs, cache_root, plot, output, observe],
        ),
        predict=(_run_predict, [predict_action, jobs, cache_root, observe]),
        obs=(_run_obs, [obs_action, output]),
        serve=(
            _run_serve,
            [prediction, address, server, jobs, engine, store, cache_root, observe],
        ),
        loadgen=(
            _run_loadgen,
            [load, address, server, jobs, engine, cache_root, observe, chaos_only],
        ),
    )
    parser = argparse.ArgumentParser(
        prog="repro-sync",
        description=(
            "Reproduce figures from Floyd & Jacobson, 'The Synchronization "
            "of Periodic Routing Messages' (SIGCOMM 1993).  Each figure id "
            "runs that figure and 'all' runs every one; 'repro-sync COMMAND "
            "--help' lists the flags a command takes."
        ),
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(
        dest="target", metavar="COMMAND", required=True, help=", ".join(table)
    )
    for name, (handler, declarations) in table.items():
        if command in table and name != command:
            continue
        sub = commands.add_parser(name, allow_abbrev=False)
        for declare in declarations:
            declare(sub)
        sub.set_defaults(handler=handler)
    return parser


def _run_cache(args) -> int:
    """The 'cache' command: verify / repair / clear the result cache."""
    from ..parallel import ResultCache

    cache = ResultCache(args.cache_root)
    if args.action == "verify":
        report = cache.verify()
        print(
            f"cache {cache.root}: {report['entries']} entries, "
            f"{report['valid']} valid, {len(report['corrupt'])} corrupt, "
            f"{len(report['stale_tmp'])} stale tmp, "
            f"{report['quarantined']} quarantined"
        )
        for name, why in report["corrupt"].items():
            print(f"  corrupt: {name}: {why}")
        for name in report["stale_tmp"]:
            print(f"  stale tmp: {name}")
        claims = report["claims"]
        if any(claims.values()):
            print(
                f"  claims/: {claims['records']} record(s), "
                f"{claims['tombstones']} tombstone(s), "
                f"{claims['beats']} beat temp(s) "
                "(prune with 'claims gc')"
            )
        if report["corrupt"] or report["stale_tmp"]:
            print("run 'cache repair' to quarantine/sweep")
            return 1
        return 0
    if args.action == "repair":
        done = cache.repair()
        print(
            f"cache {cache.root}: quarantined {len(done['quarantined'])} "
            f"corrupt entr{'y' if len(done['quarantined']) == 1 else 'ies'}, "
            f"removed {len(done['removed_tmp'])} stale tmp file(s)"
        )
        return 0
    removed = cache.clear()
    print(f"cache {cache.root}: removed {removed} entries")
    return 0


def _run_claims(args) -> int:
    """The 'claims' command: inventory / gc single-flight claim files."""
    from pathlib import Path

    from ..parallel import ClaimRegistry

    root = Path(args.cache_root or "results/cache") / "claims"
    registry = ClaimRegistry(root)
    if args.action == "list":
        inv = registry.inventory()
        print(
            f"claims {registry.root}: {len(inv['claims'])} record(s), "
            f"{len(inv['tombstones'])} tombstone(s), "
            f"{len(inv['beats'])} beat temp(s), "
            f"{inv['publishes']} publish(es)"
        )
        for record in inv["claims"]:
            age = record["heartbeat_age"]
            age_text = f"{age:.1f}s" if age is not None else "?"
            print(
                f"  {record['status']:>5}: {record['key'][:16]} "
                f"pid={record['pid']} heartbeat_age={age_text}"
            )
        return 0
    done = registry.gc(max_age=args.max_age)
    print(
        f"claims {registry.root}: removed {len(done['removed_claims'])} "
        f"stale claim(s), {len(done['removed_tombstones'])} "
        f"tombstone(s), {len(done['removed_beats'])} beat temp(s)"
    )
    return 0


def _run_campaign(args) -> int:
    """The 'campaign' command: run / status / report / shard a study."""
    from ..campaign import (
        DEFAULT_CHUNK_SIZE,
        LocalDispatcher,
        ServeDispatcher,
        build_report,
        campaign_status,
        format_report,
        format_status,
        load_spec,
        parse_endpoints,
        parse_shard,
        run_campaign,
        shard_manifest,
        write_report,
    )
    from ..parallel import ResultCache

    try:
        spec = load_spec(args.path)
    except (OSError, ValueError) as error:
        print(f"error: cannot load campaign spec {args.path}: {error}", file=sys.stderr)
        return 2
    try:
        shard, num_shards = parse_shard(args.shard)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_root)

    if args.action == "shard":
        counts = shard_manifest(spec, num_shards)
        print(
            f"campaign {spec.campaign_id()} name={spec.name} "
            f"total={spec.total_jobs} shards={num_shards}"
        )
        for k, count in enumerate(counts):
            marker = " <- selected" if (k == shard and num_shards > 1) else ""
            print(f"  shard {k}/{num_shards}: {count} job(s){marker}")
        return 0

    if args.action == "status":
        status = campaign_status(spec, num_shards=num_shards, cache=cache)
        print(format_status(status))
        return 0 if status["complete"] else 1

    if args.action == "report":
        report = build_report(spec, cache)
        if args.output:
            target = write_report(report, args.output)
            print(f"report written to {target}")
        elif args.plot:
            from ..campaign.report import plot_report

            print(plot_report(report))
        else:
            print(format_report(report))
        if not report["complete"]:
            print(
                f"warning: {report['missing']} job(s) missing from the "
                "cache; statistics are provisional (run the campaign to "
                "completion)",
                file=sys.stderr,
            )
            return 1
        return 0

    # "run"
    if args.dispatch == "serve":
        try:
            endpoints = parse_endpoints(args.endpoints)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        dispatcher = ServeDispatcher(endpoints=endpoints)
    else:
        dispatcher = LocalDispatcher(jobs=args.jobs or 1)

    try:
        summary = run_campaign(
            spec,
            shard=shard,
            num_shards=num_shards,
            dispatcher=dispatcher,
            cache=cache,
            console=_console,
            chunk_size=args.chunk_size or DEFAULT_CHUNK_SIZE,
        )
    except (OSError, RuntimeError, ValueError) as error:
        print(f"error: campaign run failed: {error}", file=sys.stderr)
        return 1
    print(summary.summary_line())
    return 0 if summary.complete else 1


def _run_serve(args) -> int:
    """The 'serve' command: run the simulation-serving API until SIGTERM."""
    from ..serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs or 1,
        queue_depth=args.queue_depth,
        deadline=args.deadline,
        cache_root=None if args.no_cache else (args.cache_root or "results/cache"),
        checkpoint=bool(args.resume),
        engine=args.engine or "cascade",
        workers=args.workers,
        predict_table=args.predict_table,
    )

    def announce(line: str) -> None:
        print(line, flush=True)

    return serve_forever(config, announce=announce)


def _check_loadgen(args, error) -> None:
    """Reject the loadgen flags this run would ignore, as usage errors.

    A plain run drives load at --host/--port and reads no server
    setting; a --chaos run hosts its own fleet on a free port.
    """
    if args.chaos:
        ignored = {"--port": args.port}
        reason = "the --chaos fleet listens on a free port"
    else:
        ignored = {
            "--workers": args.workers,
            "--jobs": args.jobs,
            "--engine": args.engine,
            "--queue-depth": args.queue_depth,
            "--deadline": args.deadline,
            "--cache-root": args.cache_root,
        }
        reason = "only a --chaos run hosts a server to configure"
    given = [flag for flag, value in ignored.items() if value is not None]
    if given:
        error(f"{', '.join(given)} would be ignored: {reason}")


def _run_loadgen(args) -> int:
    """The 'loadgen' command: seeded load against a running server.

    ``--chaos`` self-hosts a prefork fleet instead and runs the load
    while killing/respawning workers and injecting claim-protocol
    faults — the CLI spelling of the chaos-under-load suite.
    """
    from ..serve import LoadPlan, format_report, run_load

    plan = LoadPlan(
        clients=args.clients,
        period=args.period,
        jitter=args.load_jitter,
        duration=args.duration,
        seed=args.seed,
        real_time=args.real_time or args.chaos,
        retries=args.retries if not args.chaos else max(args.retries, 3),
    )
    if args.chaos:
        return _run_chaos_loadgen(args, plan)
    port = DEFAULT_PORT if args.port is None else args.port
    try:
        report = run_load(plan, args.host, port)
    except (ConnectionError, OSError) as error:
        print(
            f"error: cannot reach server at {args.host}:{port}: {error}",
            file=sys.stderr,
        )
        return 2
    print(format_report(report))
    return 0 if report["identical_payloads_per_key"] else 1


def _run_chaos_loadgen(args, plan) -> int:
    from ..parallel import FaultPlan
    from ..serve import ServeConfig, format_report, run_chaos_load

    seeds = tuple(
        spec["seed"] for spec in plan.specs[: max(1, len(plan.specs) // 2)]
    )
    given = {
        name: getattr(args, name)
        for name in ("jobs", "queue_depth", "engine")
        if getattr(args, name) is not None
    }
    config = ServeConfig(
        host=args.host,
        port=0,  # the fleet is self-hosted; never squat the real port
        deadline=args.deadline or 60.0,
        cache_root=args.cache_root or "results/chaos_cache",
        workers=max(2, args.workers or 2),
        claim_ttl=2.0,
        faults=FaultPlan.of(
            FaultPlan.serve_crash(seeds=seeds[:1]),
            FaultPlan.claim_orphan(seeds=seeds[-1:]),
        ),
        **given,
    )
    report = run_chaos_load(plan, config)
    print(format_report(report))
    chaos = report["chaos"]
    healthy = (
        report["identical_payloads_per_key"]
        and chaos["exactly_once_per_key"]
        and chaos["no_request_lost"]
        and chaos["drain_exit_code"] == 0
    )
    return 0 if healthy else 1


def _run_predict(args) -> int:
    """The 'predict' command: build / eval / verify prediction tables."""
    import json as _json

    from ..campaign import load_spec
    from ..parallel import ResultCache
    from ..predict import (
        SurrogateEvaluator,
        build_table,
        resolve_table,
        save_table,
        verify_table,
    )

    cache = ResultCache(args.cache_root)

    if args.action == "build":
        try:
            spec = load_spec(args.path)
        except (OSError, ValueError) as error:
            print(
                f"error: cannot load campaign spec {args.path}: {error}",
                file=sys.stderr,
            )
            return 2
        try:
            table = build_table(
                spec, cache, holdout_count=args.holdout, console=_console
            )
        except (OSError, ValueError) as error:
            print(f"error: predict build failed: {error}", file=sys.stderr)
            return 1
        target = save_table(table, args.cache_root)
        valid = sum(1 for cell in table["cells"] if cell["valid"])
        print(
            f"table {table['table_id']} cells={len(table['cells'])} "
            f"valid={valid} holdout={table['holdout_count']} -> {target}"
        )
        return 0

    try:
        table = resolve_table(args.path, args.cache_root)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.action == "eval":
        if args.point is None:
            print(
                "error: predict eval needs --point N,TP,TC,TR",
                file=sys.stderr,
            )
            return 2
        answer = SurrogateEvaluator(table).predict(*args.point)
        if (
            args.tolerance is not None
            and answer["status"] == "ok"
            and answer["bound_rel"] > args.tolerance
        ):
            answer["status"] = "tolerance_exceeded"
        print(_json.dumps(answer, sort_keys=True, indent=1))
        return 0 if answer["status"] == "ok" else 1

    # "verify"
    audit = verify_table(
        table, cache, seed_count=args.fresh_seeds, jobs=args.jobs
    )
    print(
        f"table {audit['table_id']} checked={audit['cells_checked']} "
        f"skipped={audit['cells_skipped']} fresh_seeds="
        f"{audit['seed_start']}..{audit['seed_start'] + audit['seed_count'] - 1} "
        f"all_in_bound={str(audit['all_in_bound']).lower()}"
    )
    for row in audit["rows"]:
        rel = (
            f"{row['rel_error']:.3f}" if row["rel_error"] is not None else "-"
        )
        print(
            f"  n={row['n_nodes']} tp={row['tp']:g} tc={row['tc']:g} "
            f"tr={row['tr']:g}: rel_error={rel} "
            f"bound={row['bound_rel']:.3f} "
            f"in_bound={str(row['in_bound']).lower()}"
        )
    return 0 if audit["all_in_bound"] else 1


def _run_bench(args) -> int:
    """The 'bench' command: run one declared workload, write its snapshot."""
    from ..bench import WORKLOADS, format_table, run_benchmark

    output = WORKLOADS[args.action].output
    snapshot = run_benchmark(args.action, jobs=args.jobs, output=output)
    print(format_table(snapshot))
    print(f"snapshot written to {output}")
    return 0 if snapshot["ok"] else 1


def _run_obs(args) -> int:
    """The 'obs' command: read a JSONL trace log back."""
    from ..obs.export import read_trace, summarize_trace, write_chrome_trace

    try:
        if args.action == "export-trace":
            dest = write_chrome_trace(args.path, args.output)
            print(
                f"chrome trace written to {dest} "
                "(open in chrome://tracing or https://ui.perfetto.dev)"
            )
            return 0
        records = read_trace(args.path)
    except OSError as error:
        print(f"error: cannot read trace {args.path}: {error}", file=sys.stderr)
        return 2
    if args.action == "summary":
        print(summarize_trace(records))
        return 0
    from ..obs.profile import format_top

    print(format_top(records.get("profile", [])))
    return 0


def _configure_obs(args) -> bool:
    """Turn the global obs runtime on per the flags; True if configured."""
    wants = (
        args.trace or args.metrics or args.profile or args.quiet or args.verbose
    )
    if not wants:
        return False
    from ..obs import ERROR, INFO, configure

    console = INFO if args.verbose else (ERROR if args.quiet else None)
    configure(
        enabled=bool(args.trace or args.metrics),
        profile=args.profile,
        console_level=console,
    )
    return True


def _finalize_obs(args) -> None:
    """Write/print the collected observability artifacts, then reset.

    Everything lands on stderr so stdout — the experiment's actual
    output — stays byte-identical with observability off.
    """
    from ..obs import obs, reset

    o = obs()
    try:
        if args.trace:
            from ..obs.export import write_trace

            path = write_trace(
                args.trace,
                spans=o.tracer.records,
                events=o.events.events,
                metrics=o.metrics.snapshot(),
                profile=o.profile_rows,
                meta={"trace_id": o.tracer.trace_id},
            )
            print(f"trace written to {path}", file=sys.stderr)
        if args.metrics:
            print("metrics:", file=sys.stderr)
            for name, state in sorted(o.metrics.snapshot().items()):
                if state.get("kind") == "histogram":
                    print(
                        f"  {name}: n={state['count']} "
                        f"mean={state['mean']:.6f}s sum={state['sum']:.6f}s",
                        file=sys.stderr,
                    )
                else:
                    print(f"  {name}: {state.get('value', 0):g}", file=sys.stderr)
        if args.profile:
            from ..obs.profile import format_top

            print(format_top(o.profile_rows), file=sys.stderr)
    finally:
        reset()


def _run_list(args) -> int:
    """The 'list' command: print every figure id."""
    for figure_id in figure_ids():
        print(figure_id)
    return 0


def _run_figures(args) -> int:
    """A figure id, or 'all': run the reproduction(s) and print them."""
    cache = None
    if not args.no_cache:
        from ..parallel import ResultCache

        cache = ResultCache(args.cache_root)
    checkpoint = True if args.resume else None
    targets = figure_ids() if args.target == "all" else [args.target]
    try:
        for figure_id in targets:
            result = run_figure(
                figure_id,
                fast=args.fast,
                jobs=args.jobs,
                cache=cache,
                checkpoint=checkpoint,
                engine=args.engine,
                topology=args.topology,
            )
            if args.plot:
                print(_render_plots(result))
            else:
                print(result.format_text(max_points=args.max_points))
            print()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (2 for a usage error)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        if "check" in args:  # what argparse alone cannot express
            args.check(args)
    except SystemExit as stop:  # usage errors exit 2, --help exits 0
        return stop.code
    # Commands without the obs flags, or runs that set none of them.
    if "trace" not in args or not _configure_obs(args):
        return args.handler(args)
    try:
        if args.profile:
            from ..obs import obs
            from ..obs.profile import profiled

            # Profile the in-process side too (jobs=1 runs, cache and
            # aggregation work); pool workers ship their own rows.
            with profiled(obs().profile_rows):
                return args.handler(args)
        return args.handler(args)
    finally:
        _finalize_obs(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
