"""Command-line interface: ``python -m repro <experiment> [options]``.

Regenerates any of the paper's figures/tables from a terminal without
writing code, and runs individual workloads under chosen schemes::

    python -m repro figure9 --procs 2,4,8,16 --jobs 4
    python -m repro figure11 --cpus 16 --json
    python -m repro run single-counter --scheme TLR --cpus 8 --ops 2048
    python -m repro coarse-vs-fine
    python -m repro policies --policy timestamp,backoff --jobs 4
    python -m repro sched --schedulers rr,cfs --threads-per-cpu 2
    python -m repro verify --policy requester-wins --seeds 25
    python -m repro list

Every experiment accepts the sweep-engine options:

``--jobs N``       fan independent runs out over N worker processes
                   (default 1 = serial; results are bit-identical
                   either way);
``--timeout S``    per-run wall-clock budget in seconds, checked by the
                   kernel in any thread (livelocked runs are retried
                   with bumped seeds, then reported as failures
                   without aborting the sweep);
``--json``         emit the result as JSON (stable ``to_dict`` schema)
                   instead of tables;
``--no-cache``     disable the on-disk result cache;
``--cache-dir D``  cache location (default ``$REPRO_CACHE_DIR`` or
                   ``~/.cache/repro-tlr``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

from repro.harness import report
from repro.harness.config import (SchedConfig, SpeculationConfig,
                                  SyncScheme, SystemConfig)
from repro.harness.experiments import (AppResult, PolicyGridResult,
                                       SchedGridResult, SweepResult)
from repro.harness.jobs import JobResult, submit
from repro.harness.parallel import FailedRun
from repro.harness.runner import RunResult
from repro.harness.spec import (SIZE_PARAM, WORKLOAD_BUILDERS, JobSpec,
                                RunSpec, scheme_from_str)

SCHEME_ALIASES = ("BASE", "SLE", "TLR", "TLR-STRICT-TS", "MCS")
WORKLOADS = tuple(sorted(WORKLOAD_BUILDERS))
POLICIES = SpeculationConfig.KNOWN_POLICIES
SCHEDULERS = tuple(name for name in SchedConfig.KNOWN_SCHEDULERS
                   if name != "none")


def _parse_procs(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _known(kind: str, names: tuple[str, ...], many: bool = False):
    """argparse ``type`` for one of ``names``, or with ``many`` a
    comma-separated tuple of them; a bad name exits 2 listing them."""
    def parse(text: str):
        picked = text.split(",") if many else [text]
        for name in picked:
            if name not in names:
                raise argparse.ArgumentTypeError(
                    f"unknown {kind} {name}; one of {' '.join(names)}")
        return tuple(picked) if many else text
    return parse


def _scheme(text: str) -> SyncScheme:
    """argparse ``type`` for ``--scheme``: any case, ``_`` or ``-``."""
    name = _known("scheme", SCHEME_ALIASES)(text.upper().replace("_", "-"))
    return scheme_from_str(name.replace("-", "_"))


def _engine_opts(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--jobs", type=int, default=1,
                     help="worker processes (0 = one per CPU)")
    cmd.add_argument("--timeout", type=float, default=None,
                     help="per-run wall-clock budget in seconds")
    cmd.add_argument("--json", action="store_true",
                     help="emit the result as JSON")
    cmd.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk result cache")
    cmd.add_argument("--cache-dir", type=str, default=None,
                     help="result cache directory (default "
                          "$REPRO_CACHE_DIR or ~/.cache/repro-tlr)")


def _engine_kwargs(args) -> dict:
    cache = False if args.no_cache else (args.cache_dir or True)
    return {"jobs": args.jobs, "timeout": args.timeout, "cache": cache}


def _submit(spec: JobSpec, args) -> JobResult:
    """Every CLI subcommand funnels its work through here -- the same
    :func:`repro.harness.jobs.submit` the HTTP service calls."""
    return submit(spec, **_engine_kwargs(args))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TLR (Rajwar & Goodman, ASPLOS 2002) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    def sweep_cmd(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--procs", type=_parse_procs,
                         default=(2, 4, 8, 16),
                         help="comma-separated processor counts")
        cmd.add_argument("--ops", type=int, default=None,
                         help="total operations (scaled default)")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--plot", action="store_true",
                         help="also draw an ascii plot")
        _engine_opts(cmd)
        return cmd

    sweep_cmd("figure8", "multiple-counter sweep (coarse/no-conflicts)")
    sweep_cmd("figure9", "single-counter sweep (fine/high-conflict)")
    sweep_cmd("figure10", "linked-list sweep (dynamic conflicts)")

    fig7 = sub.add_parser("figure7", help="queue-on-data intuition")
    fig7.add_argument("--cpus", type=int, default=4)
    fig7.add_argument("--ops", type=int, default=256)
    _engine_opts(fig7)

    fig11 = sub.add_parser("figure11", help="application suite")
    fig11.add_argument("--cpus", type=int, default=16)
    fig11.add_argument("--apps", type=str, default=None,
                       help="comma-separated subset of app names")
    _engine_opts(fig11)

    _engine_opts(sub.add_parser("coarse-vs-fine",
                                help="mp3d lock granularity"))
    _engine_opts(sub.add_parser("rmw-predictor",
                                help="BASE vs BASE-no-opt"))

    verify_cmd = sub.add_parser(
        "verify", help="serializability oracle + invariant monitors "
                       "over a seed fan-out")
    verify_cmd.add_argument(
        "workloads", nargs="*", metavar="workload",
        type=_known("workload", WORKLOADS),
        help="workloads to verify (default: single-counter, "
             "multiple-counter, linked-list)")
    verify_cmd.add_argument("--scheme", type=_scheme, default="TLR",
                            help="|".join(SCHEME_ALIASES))
    verify_cmd.add_argument("--cpus", type=int, default=4)
    verify_cmd.add_argument("--seeds", type=int, default=100,
                            help="seeds to fan each workload across")
    verify_cmd.add_argument("--ops", type=int, default=96,
                            help="workload size per run")
    verify_cmd.add_argument("--chaos", type=int, default=0,
                            help="kernel schedule-chaos amplitude "
                                 "(0 = deterministic FIFO within a cycle)")
    verify_cmd.add_argument("--base-seed", type=int, default=0)
    verify_cmd.add_argument("--litmus", action="store_true",
                            help="also run the TM litmus conformance "
                                 "scenarios (write skew, publication, "
                                 "atomicity); each failing seed is "
                                 "shrunk and auto-captures a record "
                                 "log")
    verify_cmd.add_argument("--no-shrink", action="store_true",
                            help="report failing seeds without shrinking")
    verify_cmd.add_argument("--policy", type=_known("policy", POLICIES),
                            help="contention policy to verify under "
                                 "(default: the paper's timestamp "
                                 "deferral)")
    _engine_opts(verify_cmd)

    policies_cmd = sub.add_parser(
        "policies", help="contention-policy grid (policies x workloads "
                         "x processors), every run oracle-checked")
    policies_cmd.add_argument(
        "--policy", type=_known("policy", POLICIES, many=True),
        help="comma-separated policies (default: all four)")
    policies_cmd.add_argument(
        "--workloads", type=_known("workload", WORKLOADS, many=True),
        help="comma-separated workloads (default: single-counter, "
             "linked-list, ocean-cont, barnes)")
    policies_cmd.add_argument("--procs", type=_parse_procs,
                              default=(2, 4, 8),
                              help="comma-separated processor counts")
    policies_cmd.add_argument("--seeds", type=int, default=3,
                              help="seeds per grid cell")
    policies_cmd.add_argument("--ops", type=int, default=96,
                              help="microbenchmark size per run")
    policies_cmd.add_argument("--app-scale", type=int, default=12,
                              help="application-kernel scale per run")
    policies_cmd.add_argument("--base-seed", type=int, default=0)
    _engine_opts(policies_cmd)

    sched_cmd = sub.add_parser(
        "sched", help="preemptive-scheduler grid (schedulers x quanta "
                      "x policies x workloads) with more threads than "
                      "CPUs, every run oracle-checked")
    sched_cmd.add_argument(
        "--schedulers", type=_known("scheduler", SCHEDULERS, many=True),
        help="comma-separated scheduler cores (default: rr,mlfq,cfs)")
    sched_cmd.add_argument(
        "--quanta", type=str, default=None,
        help="comma-separated timer quanta in cycles (default: 200,800)")
    sched_cmd.add_argument(
        "--policy", type=_known("policy", POLICIES, many=True),
        help="comma-separated contention policies (default: "
             "timestamp,nack)")
    sched_cmd.add_argument(
        "--workloads", type=_known("workload", WORKLOADS, many=True),
        help="comma-separated workloads (default: single-counter, "
             "linked-list)")
    sched_cmd.add_argument("--cpus", type=int, default=4,
                           help="runtime threads (thread contexts)")
    sched_cmd.add_argument("--threads-per-cpu", type=int, default=2,
                           help="multiplexing ratio: threads per CPU "
                                "slot (cpus // this = slots)")
    sched_cmd.add_argument("--migrate", action="store_true",
                           help="allow threads to resume on any slot "
                                "(pay the migration penalty)")
    sched_cmd.add_argument("--seeds", type=int, default=2,
                           help="seeds per grid cell")
    sched_cmd.add_argument("--ops", type=int, default=96,
                           help="microbenchmark size per run")
    sched_cmd.add_argument("--app-scale", type=int, default=12,
                           help="application-kernel scale per run")
    sched_cmd.add_argument("--base-seed", type=int, default=0)
    _engine_opts(sched_cmd)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clean the on-disk result cache")
    cache_cmd.add_argument("--cache-dir", type=str, default=None,
                           help="cache location (default "
                                "$REPRO_CACHE_DIR or ~/.cache/repro-tlr)")
    cache_cmd.add_argument("--prune", action="store_true",
                           help="remove entries from superseded "
                                "fingerprint-schema versions")
    cache_cmd.add_argument("--ttl", type=float, default=None,
                           metavar="SECONDS",
                           help="with --prune: also evict current-"
                                "version entries older than SECONDS "
                                "(by mtime, oldest first)")
    cache_cmd.add_argument("--clear", action="store_true",
                           help="remove every entry (all versions)")
    cache_cmd.add_argument("--stats", action="store_true",
                           help="entry count, byte footprint and the "
                                "hit/miss counters persisted by the "
                                "service")

    serve_cmd = sub.add_parser(
        "serve", help="run the HTTP job-queue service (POST JobSpec "
                      "envelopes to /jobs; progress on /jobs/<id>/events; "
                      "OpenMetrics on /metrics)")
    serve_cmd.add_argument("--host", type=str, default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8023,
                           help="listen port (0 = ephemeral)")
    serve_cmd.add_argument("--workers", type=int, default=2,
                           help="concurrent jobs (worker threads)")
    serve_cmd.add_argument("--regen", action="store_true",
                           help="before serving, re-simulate BENCH "
                                "artifact cells whose fingerprints are "
                                "missing from the cache")
    serve_cmd.add_argument("--verbose", action="store_true",
                           help="log every HTTP request")
    _engine_opts(serve_cmd)

    runner = sub.add_parser("run", help="run one workload")
    runner.add_argument("workload", choices=WORKLOADS)
    runner.add_argument("--scheme", type=_scheme, default="TLR",
                        help="|".join(SCHEME_ALIASES))
    runner.add_argument("--cpus", type=int, default=8)
    runner.add_argument("--ops", type=int, default=None,
                        help="workload size: total operations for the "
                             "microbenchmarks, iterations per thread for "
                             "the application kernels")
    runner.add_argument("--seed", type=int, default=0)
    runner.add_argument("--metrics", action="store_true",
                        help="also print the run's conflict telemetry "
                             "(counters, gauges, histograms)")
    runner.add_argument("--format", choices=("table", "openmetrics"),
                        default="table",
                        help="telemetry rendering for --metrics: the "
                             "human table or OpenMetrics text "
                             "exposition format")
    runner.add_argument("--record", type=str, default=None, metavar="PATH",
                        help="capture the run's binary record log to "
                             "PATH (always executes: recorded runs "
                             "never replay from the cache)")
    runner.add_argument("--sched", type=_known("scheduler", SCHEDULERS),
                        metavar="SCHEDULER",
                        help="preemptive scheduler core (rr|mlfq|cfs): "
                             "multiplex the threads over fewer CPU "
                             "slots, preempting at instruction "
                             "boundaries")
    runner.add_argument("--quantum", type=int, default=200,
                        help="scheduler time slice in cycles "
                             "(default 200)")
    runner.add_argument("--threads-per-cpu", type=int, default=2,
                        help="multiplexing ratio for --sched: threads "
                             "sharing one CPU slot (default 2)")
    runner.add_argument("--migrate", action="store_true",
                        help="with --sched: let threads run on any "
                             "slot instead of a pinned home slot")
    _engine_opts(runner)

    replay_cmd = sub.add_parser(
        "replay", help="time-travel debugger over a record log: replay "
                       "purity check by default; --seek/--line/--cpu "
                       "answer state and history queries from the log "
                       "alone, without re-simulating")
    replay_cmd.add_argument("log", help="record log path (.rlog)")
    replay_cmd.add_argument("--seek", type=int, default=None,
                            metavar="CYCLE",
                            help="reconstruct machine state at CYCLE")
    replay_cmd.add_argument("--line", type=lambda t: int(t, 0),
                            default=None, metavar="ADDR",
                            help="history of one cache line (hex ok)")
    replay_cmd.add_argument("--cpu", type=int, default=None,
                            help="history of one CPU's records")
    replay_cmd.add_argument("--since", type=int, default=0,
                            help="history window start cycle")
    replay_cmd.add_argument("--until", type=int, default=None,
                            help="history window end cycle")
    replay_cmd.add_argument("--spans", action="store_true",
                            help="list transaction windows "
                                 "(cpu, begin, end, outcome)")
    replay_cmd.add_argument("--sched", action="store_true",
                            help="list scheduler slot-occupancy windows "
                                 "(slot, thread, on, off) from the "
                                 "OP_SCHED records; with --seek, "
                                 "state_at already shows who was "
                                 "on-CPU at that cycle")
    replay_cmd.add_argument("--counts", action="store_true",
                            help="histogram of record ops / tap kinds")
    replay_cmd.add_argument("--dump", action="store_true",
                            help="dump decoded records (respects "
                                 "--since/--until)")
    replay_cmd.add_argument("--diff", type=str, default=None,
                            metavar="OTHER",
                            help="compare against another log and "
                                 "report the first diverging record")
    replay_cmd.add_argument("--vcd", type=str, default=None,
                            metavar="OUT",
                            help="export waveform signals as VCD")

    profile_cmd = sub.add_parser(
        "profile", help="per-lock contention profile and abort "
                        "attribution: run a workload live, or fold an "
                        "existing record log (--from-log) without "
                        "re-simulating")
    profile_cmd.add_argument("workload", nargs="?", default=None,
                             choices=WORKLOADS,
                             help="workload to run live (omit when "
                                  "using --from-log)")
    profile_cmd.add_argument("--from-log", type=str, default=None,
                             metavar="PATH",
                             help="fold a v3 record log's transaction "
                                  "records instead of running anything")
    profile_cmd.add_argument("--scheme", type=_scheme, default="TLR",
                             help="|".join(SCHEME_ALIASES))
    profile_cmd.add_argument("--cpus", type=int, default=8)
    profile_cmd.add_argument("--ops", type=int, default=None,
                             help="workload size (same knob as "
                                  "``repro run --ops``)")
    profile_cmd.add_argument("--seed", type=int, default=0)
    profile_cmd.add_argument("--format",
                             choices=("markdown", "json", "folded"),
                             default="markdown",
                             help="markdown report, the raw snapshot "
                                  "as JSON, or folded stacks for "
                                  "flamegraph tooling")

    sub.add_parser("list", help="list workloads and schemes")
    return parser


def _config(seed: int = 0) -> SystemConfig:
    return SystemConfig(seed=seed)


def _do_sweep(args, name: str) -> int:
    params = {"processor_counts": list(args.procs),
              "config": _config(args.seed)}
    if args.ops:
        params["total_ops" if name == "figure10"
               else "total_increments"] = args.ops
    job = _submit(JobSpec.sweep(name, **params), args)
    if args.json:
        print(json.dumps(job.result, indent=2))
        return 0
    result = SweepResult.from_dict(job.result)
    print(report.sweep_table(result))
    if result.failures:
        print(report.failures_table(result.failures))
    if args.plot:
        print()
        print(report.ascii_series(result))
    _print_telemetry(job)
    return 0


def _print_telemetry(job: JobResult) -> None:
    if job.cached:
        print("job replayed from cache (nothing simulated)",
              file=sys.stderr)
        return
    line = report.telemetry_line(job.telemetry)
    if line:
        print(line, file=sys.stderr)


def _render_verify_payload(payload: dict) -> str:
    """Human summary of a serialized VerifySuiteResult payload."""
    lines = []
    for name, entry in (payload.get("workloads") or {}).items():
        status = ("PASS" if entry["ok"]
                  else f"FAIL ({len(entry['failures'])} seeds)")
        lines.append(
            f"{name}: {status} -- {entry['seeds']} seeds, "
            f"{entry['total_txns']} txns verified, "
            f"{entry['cache_hits']} cached, "
            f"{entry['wall_seconds']:.1f}s")
    shrunk = payload.get("shrunk")
    if shrunk:
        spec = shrunk.get("spec") or {}
        config = spec.get("config") or {}
        result = shrunk.get("result") or {}
        problem = result.get("error") or ", ".join(
            result.get("violations") or ["?"])[:200]
        lines += ["",
                  f"minimal reproduction after "
                  f"{shrunk.get('shrink_steps', 0)} shrink steps: "
                  f"{spec.get('workload')} cpus={config.get('num_cpus')} "
                  f"seed={config.get('seed')}",
                  f"failure: {problem}"]
        if result.get("record_log"):
            lines.append(f"record log: {result['record_log']} "
                         f"(replay with `repro replay`)")
        lines += ["", shrunk.get("trace", "")]
    return "\n".join(lines)


def _do_replay(args) -> int:
    """The ``repro replay`` subcommand: every mode except the default
    purity check reads the log alone -- no re-simulation."""
    from repro.record import (LogFormatError, Timeline, export_vcd,
                              first_divergence, load_log, replay_log)
    try:
        with open(args.log, "rb") as fh:
            raw = fh.read()
        image = load_log(raw)
    except (OSError, LogFormatError) as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2

    queried = False
    timeline = Timeline(image)
    if args.seek is not None:
        queried = True
        print(timeline.state_at(args.seek).render())
    if args.line is not None:
        queried = True
        history = timeline.line_history(args.line, since=args.since,
                                        until=args.until)
        print(f"line {args.line:#x}: {len(history)} records in "
              f"[{args.since}, {args.until if args.until is not None else timeline.final_time}]")
        for record in history:
            print("  " + record.render())
    if args.cpu is not None:
        queried = True
        history = timeline.cpu_history(args.cpu, since=args.since,
                                       until=args.until)
        print(f"cpu{args.cpu}: {len(history)} records")
        for record in history:
            print("  " + record.render())
    if args.spans:
        queried = True
        for cpu, begin, end, outcome in timeline.txn_spans():
            print(f"cpu{cpu}: t={begin}..{end} ({outcome})")
    if args.sched:
        queried = True
        spans = timeline.sched_spans()
        if not spans:
            print("no scheduler records (scheduler-off log)")
        for slot, thread, on, off in spans:
            print(f"slot{slot}: thread{thread} t={on}..{off} "
                  f"({off - on} cycles)")
    if args.counts:
        queried = True
        for key, count in sorted(timeline.counts().items()):
            print(f"{key:<20} {count}")
    if args.dump:
        queried = True
        for record in timeline.records:
            if record.time < args.since:
                continue
            if args.until is not None and record.time > args.until:
                break
            print(record.render())
    if args.vcd:
        queried = True
        with open(args.vcd, "w") as fh:
            changes = export_vcd(timeline, fh)
        print(f"wrote {args.vcd} ({changes} value changes)")
    if args.diff:
        try:
            other = load_log(args.diff)
        except (OSError, LogFormatError) as exc:
            print(f"replay: {exc}", file=sys.stderr)
            return 2
        divergence = first_divergence(image, other)
        if divergence is None:
            print("logs identical (record streams match)")
            return 0
        print(divergence.render())
        return 1
    if queried:
        return 0

    report_out = replay_log(raw)
    print(report_out.render())
    return 0 if report_out.ok else 1


def _do_profile(args) -> int:
    """The ``repro profile`` subcommand: live per-lock contention
    profile of one run, or the identical profile folded post-hoc from
    a record log."""
    from repro.obs.profile import render_folded, render_markdown

    if args.from_log and args.workload:
        print("profile: give a workload or --from-log, not both",
              file=sys.stderr)
        return 2
    if args.from_log:
        from repro.obs.causal import profile_from_log
        from repro.record import LogFormatError
        try:
            snapshot = profile_from_log(args.from_log)
        except (OSError, LogFormatError) as exc:
            print(f"profile: {exc}", file=sys.stderr)
            return 2
        title = f"contention profile of {args.from_log}"
    elif args.workload:
        scheme = args.scheme
        workload_args = ({SIZE_PARAM[args.workload]: args.ops}
                         if args.ops is not None else {})
        config = SystemConfig(num_cpus=args.cpus, scheme=scheme,
                              seed=args.seed)
        spec = RunSpec(workload=args.workload, config=config,
                       workload_args=workload_args)
        from repro.harness.runner import execute_workload
        result = execute_workload(spec.build_workload(), spec.config,
                                  validate=spec.validate)
        snapshot = (result.metrics or {}).get("profile")
        if snapshot is None:
            print("profile: run produced no profile (config.metrics "
                  "off?)", file=sys.stderr)
            return 1
        title = (f"contention profile: {args.workload} under "
                 f"{scheme.value} on {args.cpus} CPUs")
    else:
        print("profile: give a workload to run or --from-log PATH",
              file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.format == "folded":
        print(render_folded(snapshot), end="")
    else:
        print(render_markdown(snapshot, title=title), end="")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        print("workloads:")
        for name in WORKLOADS:
            print(f"  {name}")
        print("schemes:", " ".join(SCHEME_ALIASES))
        return 0

    if args.command in ("figure8", "figure9", "figure10"):
        return _do_sweep(args, args.command)

    if args.command == "figure7":
        job = _submit(JobSpec.sweep("figure7", num_cpus=args.cpus,
                                    total_increments=args.ops), args)
        if args.json:
            print(json.dumps(job.result, indent=2))
        else:
            print(report.dict_table(job.result,
                                    "figure 7: queue on data (TLR)"))
            _print_telemetry(job)
        return 0

    if args.command == "figure11":
        apps = args.apps.split(",") if args.apps else None
        job = _submit(JobSpec.sweep("figure11", num_cpus=args.cpus,
                                    apps=apps), args)
        if args.json:
            print(json.dumps(job.result, indent=2))
            return 0
        results = {name: AppResult.from_dict(app)
                   for name, app in job.result.items()}
        print(report.figure11_table(results))
        print(report.speedup_summary(results))
        for app in results.values():
            if app.failures:
                print(report.failures_table(app.failures), file=sys.stderr)
        _print_telemetry(job)
        return 0

    if args.command == "coarse-vs-fine":
        job = _submit(JobSpec.sweep("coarse-vs-fine"), args)
        if args.json:
            print(json.dumps(job.result, indent=2))
        else:
            print(report.dict_table(job.result,
                                    "mp3d: coarse vs fine grain"))
            _print_telemetry(job)
        return 0

    if args.command == "rmw-predictor":
        job = _submit(JobSpec.sweep("rmw-predictor"), args)
        if args.json:
            print(json.dumps(job.result, indent=2))
        else:
            print(report.dict_table(job.result, "BASE / BASE-no-opt"))
            _print_telemetry(job)
        return 0

    if args.command == "verify":
        workloads = args.workloads or None
        if args.litmus:
            from repro.verify.explorer import DEFAULT_VERIFY_WORKLOADS
            from repro.workloads.litmus import LITMUS_WORKLOADS
            workloads = (list(args.workloads
                              or DEFAULT_VERIFY_WORKLOADS)
                         + list(LITMUS_WORKLOADS))
        job = _submit(JobSpec.verify(
            workloads=workloads,
            scheme=args.scheme,
            num_cpus=args.cpus, seeds=args.seeds, ops=args.ops,
            chaos=args.chaos, base_seed=args.base_seed,
            shrink=not args.no_shrink, policy=args.policy), args)
        if args.json:
            print(json.dumps(job.result, indent=2))
        else:
            print(_render_verify_payload(job.result))
            _print_telemetry(job)
        return 0 if job.result["ok"] else 1

    if args.command == "policies":
        job = _submit(JobSpec.sweep(
            "policies", policies=args.policy, workloads=args.workloads,
            processor_counts=list(args.procs), seeds=args.seeds,
            ops=args.ops, app_scale=args.app_scale,
            base_seed=args.base_seed), args)
        grid = PolicyGridResult.from_dict(job.result)
        if args.json:
            print(json.dumps(job.result, indent=2))
        else:
            print(report.policy_grid_table(grid))
            _print_telemetry(job)
        return 0 if grid.ok else 1

    if args.command == "sched":
        quanta = (tuple(int(q) for q in args.quanta.split(","))
                  if args.quanta else None)
        job = _submit(JobSpec.sweep(
            "sched", schedulers=args.schedulers, quanta=quanta,
            policies=args.policy, workloads=args.workloads,
            num_cpus=args.cpus,
            threads_per_cpu=args.threads_per_cpu, migrate=args.migrate,
            seeds=args.seeds, ops=args.ops, app_scale=args.app_scale,
            base_seed=args.base_seed), args)
        grid = SchedGridResult.from_dict(job.result)
        if args.json:
            print(json.dumps(job.result, indent=2))
        else:
            print(report.sched_grid_table(grid))
            _print_telemetry(job)
        return 0 if grid.ok else 1

    if args.command == "run":
        scheme = args.scheme
        workload_args = ({SIZE_PARAM[args.workload]: args.ops}
                         if args.ops is not None else {})
        config = SystemConfig(num_cpus=args.cpus, scheme=scheme,
                              seed=args.seed)
        if args.sched:
            config = replace(config, sched=SchedConfig(
                scheduler=args.sched, quantum=args.quantum,
                threads_per_cpu=args.threads_per_cpu,
                migrate=args.migrate))
        spec = RunSpec(workload=args.workload, config=config,
                       workload_args=workload_args)
        if args.record:
            from repro.record import record_run
            recorded = record_run(spec)
            with open(args.record, "wb") as fh:
                fh.write(recorded.log)
            outcome = recorded.result
            print(f"{args.workload} under {scheme.value} on "
                  f"{args.cpus} CPUs:")
            print(f"  cycles: {outcome.cycles}")
            for key, value in outcome.stats.summary().items():
                print(f"  {key}: {value}")
            print(f"record log: {args.record} ({len(recorded.log)} bytes, "
                  f"fingerprint {recorded.fingerprint[:12]}…)")
            if recorded.error:
                print(f"run failed: {recorded.error}", file=sys.stderr)
                return 1
            return 0
        job = _submit(JobSpec.run(spec), args)
        if not job.result["ok"]:
            failed = FailedRun.from_dict(job.result["outcome"])
            print(f"run failed after {failed.attempts} attempts: "
                  f"{failed.error}: {failed.message}", file=sys.stderr)
            return 1
        outcome = RunResult.from_dict(job.result["outcome"])
        if args.json:
            print(json.dumps(job.result["outcome"], indent=2))
            return 0
        print(f"{args.workload} under {scheme.value} on {args.cpus} CPUs:")
        print(f"  cycles: {outcome.cycles}")
        for key, value in outcome.stats.summary().items():
            print(f"  {key}: {value}")
        if args.metrics:
            if args.format == "openmetrics":
                from repro.obs import openmetrics_from_dict
                print(openmetrics_from_dict(outcome.metrics), end="")
            else:
                table = report.metrics_table(outcome.metrics)
                print(table if table else "  (no telemetry: run was "
                                          "cached before metrics or "
                                          "config.metrics is off)")
        return 0

    if args.command == "replay":
        return _do_replay(args)

    if args.command == "profile":
        return _do_profile(args)

    if args.command == "cache":
        from repro.harness.cache import ResultCache
        store = ResultCache(args.cache_dir)
        if args.clear:
            print(f"removed {store.clear()} entries from {store.root}")
            return 0
        if args.prune:
            removed = store.prune(ttl=args.ttl)
            what = ("superseded/expired" if args.ttl is not None
                    else "superseded")
            print(f"pruned {removed} {what} entries from {store.root}")
        elif args.ttl is not None:
            print("--ttl requires --prune", file=sys.stderr)
            return 2
        print(f"cache root: {store.root}")
        print(f"current schema: {store.version_dir.name} "
              f"({len(store)} entries)")
        if args.stats:
            stats = store.stats()
            print(f"size: {stats['bytes']} bytes "
                  f"across {stats['entries']} entries")
            print(f"lifetime hits/misses: {stats['hits']}/"
                  f"{stats['misses']}")
        return 0

    if args.command == "serve":
        from repro.serve import serve
        engine = _engine_kwargs(args)
        serve(args.host, args.port, workers=args.workers,
              jobs=engine["jobs"], cache=engine["cache"],
              timeout=engine["timeout"], regen=args.regen,
              verbose=args.verbose)
        return 0

    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
