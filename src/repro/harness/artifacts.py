"""The committed ``BENCH_*.json`` artifacts, each declared once.

:data:`ARTIFACTS` maps every artifact's ``bench`` name to an
:class:`Artifact`: the exact ``config`` block the committed file
carries, the cells (:class:`~repro.harness.spec.RunSpec`) a config
plans, the reducer from the cells' outcomes to the file's ``results``,
and the paper's claims as named predicates over those results.
``benchmarks/bench_artifacts.py`` regenerates every file from it and
asserts the claims; :mod:`repro.harness.invalidate` (and
``repro serve --regen``) plans a committed file's cells from the
config in that file; ``tests/unit/test_artifacts.py`` checks every
claim against the committed files, so a figure regenerated with broken
behaviour fails the tier-1 suite.

Figure, table and grid entries name an experiment of
:data:`repro.harness.experiments.EXPERIMENTS` and run it through
:func:`~repro.harness.experiments.run_experiment`, so ``repro figure9``
and ``BENCH_fig09_single_counter.json`` plan the same cells.  A
verified experiment's cells run with the verifier attached
(``parallel.execute(..., verified=True)``) and are cached under their
verification fingerprint.  Nothing in ``import repro`` imports this
module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Optional, Sequence

from repro.harness import experiments as ex
from repro.harness import parallel
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.spec import SIZE_PARAM, RunSpec
from repro.obs.profile import critical_path

BASE, SLE, TLR, MCS = (s.value for s in (
    SyncScheme.BASE, SyncScheme.SLE, SyncScheme.TLR, SyncScheme.MCS))
STRICT = SyncScheme.TLR_STRICT_TS.value

Claim = Callable[[dict], bool]


@dataclass(frozen=True)
class Artifact:
    """One committed ``BENCH_<bench>.json``."""

    bench: str
    config: dict                                   # the committed block
    cells: Callable[[dict], list[RunSpec]]
    results: Callable[[dict, int], dict]           # (config, jobs) -> results
    claims: dict[str, Claim]
    verified: bool = False                         # cells run verified
    experiment: Optional[str] = None               # the experiment it runs

    @property
    def filename(self) -> str:
        return f"BENCH_{self.bench}.json"


def _experiment(bench: str, config: dict, experiment: str, shape,
                claims: dict[str, Claim]) -> Artifact:
    """An entry that runs ``experiment`` with the config's keys as its
    parameters; its results are ``shape`` of the experiment's result."""
    entry = ex.EXPERIMENTS[experiment]

    def params(cfg: dict) -> dict:
        return {key: cfg[key] for key in config}

    def results(cfg: dict, jobs: int) -> dict:
        return shape(ex.run_experiment(experiment, jobs=jobs,
                                       **params(cfg)))
    return Artifact(bench, config, lambda cfg: entry.plan(**params(cfg)),
                    results, claims, entry.verified, experiment)


def _keyed(bench: str, config: dict, keyed, reduce,
           claims: dict[str, Claim]) -> Artifact:
    """An entry whose ``keyed(config)`` names each cell; ``reduce`` gets
    ``{name: RunResult}``."""
    def results(cfg: dict, jobs: int) -> dict:
        cells = keyed(cfg)
        outcomes, _ = parallel.execute(list(cells.values()), jobs=jobs)
        return reduce({key: ex._require(outcome)
                       for key, outcome in zip(cells, outcomes)})
    return Artifact(bench, config, lambda cfg: list(keyed(cfg).values()),
                    results, claims)


def _cell(workload: str, num_cpus: int, size: Optional[int] = None, *,
          scheme: SyncScheme = SyncScheme.TLR, protocol: str = "snoop",
          memory: Optional[dict] = None, **spec_knobs) -> RunSpec:
    """One ablation or protocol cell: ``workload`` at ``num_cpus`` with
    speculation (``spec_knobs``) or memory overrides."""
    cfg = SystemConfig(num_cpus=num_cpus, scheme=scheme, protocol=protocol)
    if spec_knobs:
        cfg.spec = replace(cfg.spec, **spec_knobs)
    if memory:
        cfg.memory = replace(cfg.memory, **memory)
    args = {} if size is None else {SIZE_PARAM[workload]: size}
    return RunSpec(workload=workload, config=cfg, workload_args=args)


# ----------------------------------------------------------------------
# Result shapes
# ----------------------------------------------------------------------
def _sweep_results(result: ex.SweepResult) -> dict:
    """Per-scheme cycles at each processor count, speedups over BASE
    (``None`` where a run failed) and the summarized conflict telemetry
    per point."""
    cycles = {scheme.value: list(series)
              for scheme, series in result.series.items()}
    out = {"processor_counts": list(result.processor_counts),
           "cycles": cycles}
    base = cycles.get(BASE)
    if base:
        out["speedups_over_base"] = {
            name: [b / c if b and c else None
                   for b, c in zip(base, series)]
            for name, series in cycles.items()}
    metrics = result.extra.get("metrics")
    if metrics:
        out["metrics"] = metrics
    return out


def _app_results(apps: dict) -> dict:
    return {name: {
        "cycles": {s.value: c for s, c in app.cycles.items()},
        "speedups_over_base": {s.value: app.speedup(s) for s in app.cycles},
    } for name, app in apps.items()}


def _per_cell(grid, field: str) -> dict:
    return {key: cell[field] for key, cell in grid.cells.items()}


def _policy_results(grid: ex.PolicyGridResult) -> dict:
    cycles = _per_cell(grid, "cycles")
    slowdowns = {}
    for workload in grid.workloads:
        for n in grid.processor_counts:
            ts = cycles[f"timestamp/{workload}/{n}"]
            for policy in grid.policies:
                other = cycles[f"{policy}/{workload}/{n}"]
                if ts and other:
                    slowdowns[f"{policy}/{workload}/{n}"] = other / ts
    # "metrics" is each cell's full telemetry: the per-policy
    # deferral-depth / retry / latency histograms.
    return {"cycles": cycles, "slowdown_vs_timestamp": slowdowns,
            "summaries": _per_cell(grid, "summary"),
            "metrics": _per_cell(grid, "metrics"),
            "failed_cells": grid.failures}


def _sched_results(grid: ex.SchedGridResult) -> dict:
    # preemptions, context-switch aborts and migrations: work thrown
    # away to preemption, per cell.
    return {"cycles": _per_cell(grid, "cycles"),
            "preemptions": _per_cell(grid, "preemptions"),
            "context_switch_aborts": _per_cell(grid, "context_switch_aborts"),
            "migrations": _per_cell(grid, "migrations"),
            "summaries": _per_cell(grid, "summary"),
            "failed_cells": grid.failures}


def _fields(**read: Callable) -> Callable[[dict], dict]:
    """``{cell/field: read(run)}`` for every named cell."""
    return lambda runs: {f"{key}/{name}": get(run)
                         for key, run in runs.items()
                         for name, get in read.items()}


_CYCLES = attrgetter("cycles")
_RESTARTS = attrgetter("stats.restarts")


def _protocol_results(runs: dict) -> dict:
    cycles = {key: run.cycles for key, run in runs.items()}
    pairs = dict.fromkeys(key.rsplit("/", 1)[0] for key in cycles)
    return {"cycles": cycles, "speedups_over_base": {
        pair: cycles[f"{pair}/{BASE}"] / cycles[f"{pair}/{TLR}"]
        for pair in pairs}}


def _profile_results(runs: dict) -> dict:
    snapshots = {key: run.metrics["profile"] for key, run in runs.items()}
    return {"totals": {key: snap["totals"]
                       for key, snap in snapshots.items()},
            "critical_path": {key: [[lock, cycles] for lock, cycles
                                    in critical_path(snap)[:3]]
                              for key, snap in snapshots.items()},
            "conflicts": {key: snap["conflicts"]
                          for key, snap in snapshots.items()}}


# ----------------------------------------------------------------------
# Claims
# ----------------------------------------------------------------------
def _lowest(r: dict, scheme: str, others: Sequence[str]) -> bool:
    """``scheme`` strictly below every one of ``others`` at every point."""
    cycles = r["cycles"]
    return all(mine < min(theirs)
               for mine, *theirs in zip(cycles[scheme],
                                        *(cycles[o] for o in others)))


def _rising(values: Sequence) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _speedup(r: dict, app: str, scheme: str) -> float:
    return r[app]["speedups_over_base"][scheme]


def _tlr_over_base(r: dict, procs: int) -> float:
    """BASE cycles over TLR cycles at ``procs`` processors."""
    at = r["processor_counts"].index(procs)
    return r["cycles"][BASE][at] / r["cycles"][TLR][at]


def _sle_within_4pct_of_base(r: dict) -> bool:
    """SLE falls back to the lock: it plateaus with BASE."""
    return all(abs(sle / base - 1) <= 0.04
               for sle, base in zip(r["cycles"][SLE], r["cycles"][BASE]))


_POLICIES = {"app_scale": 12, "ops": 96,
             "policies": ["timestamp", "nack", "requester-wins", "backoff"],
             "processor_counts": [2, 4, 8], "seeds": 2,
             "workloads": ["single-counter", "linked-list", "ocean-cont"]}
_SCHED = {"app_scale": 12, "num_cpus": 4, "ops": 96,
          "policies": ["timestamp", "nack"], "quanta": [200, 800],
          "schedulers": ["rr", "mlfq", "cfs"], "seeds": 2,
          "threads_per_cpu": 2,
          "workloads": ["single-counter", "linked-list"]}
_PROFILE = {"num_cpus": 8, "ops": 96, "policies": ["timestamp", "nack"],
            "workloads": ["single-counter", "linked-list"]}
_PROTOCOLS = {"num_cpus": 8, "ops": 512,
              "protocols": ["snoop", "directory"]}
_PROTOCOL_WORKLOADS = {"single": "single-counter", "list": "linked-list"}


def _short_quantum_preempts_more(r: dict) -> bool:
    short, long_ = f"/q{_SCHED['quanta'][0]}/", f"/q{_SCHED['quanta'][-1]}/"
    preempt = r["preemptions"]
    return all(count >= preempt[key.replace(short, long_)]
               for key, count in preempt.items() if short in key)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
ARTIFACTS: dict[str, Artifact] = {entry.bench: entry for entry in (
    _experiment(
        "fig07_queue", {"num_cpus": 4, "total_increments": 256},
        "figure7", dict, {
            # No restart storm: every section commits lock-free, or
            # restarts stay under a quarter of the sections.
            "restarts_stay_rare": lambda r: (
                r["elisions_committed"] == r["critical_sections"]
                or r["restarts"] < r["critical_sections"] // 4),
            "requests_queue_on_the_data": lambda r: r["deferrals"] > 0,
        }),
    _experiment(
        "fig08_multiple_counter",
        {"processor_counts": [2, 4, 8, 16], "total_increments": 1024},
        "figure8", _sweep_results, {
            "sle_equals_tlr_at_every_point": lambda r: (
                r["cycles"][SLE] == r["cycles"][TLR]),
            "tlr_below_base_and_mcs_at_every_point": lambda r: _lowest(
                r, TLR, (BASE, MCS)),
            "base_rises_with_processors": lambda r: _rising(
                r["cycles"][BASE]),
            # Near-ideal scaling: twice the CPUs, about half the time.
            # 0.55 is ideal plus a tenth, room for the cold misses and
            # lock-line traffic a run pays at any size.
            "tlr_halves_per_doubling": lambda r: all(
                b <= 0.55 * a
                for a, b in zip(r["cycles"][TLR], r["cycles"][TLR][1:])),
        }),
    _experiment(
        "fig09_single_counter",
        {"processor_counts": [2, 4, 8, 16], "total_increments": 512},
        "figure9", _sweep_results, {
            "tlr_lowest_at_every_point": lambda r: _lowest(
                r, TLR, (BASE, MCS, SLE, STRICT)),
            "strict_ts_gap_grows": lambda r: _rising(
                [s - t for s, t in zip(r["cycles"][STRICT],
                                       r["cycles"][TLR])]),
            "sle_within_4pct_of_base": _sle_within_4pct_of_base,
            # "~4x" at 16 processors: anything that rounds to 4.
            "tlr_about_4x_over_base_at_16p": lambda r: (
                _tlr_over_base(r, 16) > 3.5),
        }),
    _experiment(
        "fig10_linked_list",
        {"processor_counts": [2, 4, 8, 16], "total_ops": 512},
        "figure10", _sweep_results, {
            "tlr_lowest_at_every_point": lambda r: _lowest(
                r, TLR, (BASE, MCS, SLE)),
            "sle_within_4pct_of_base": _sle_within_4pct_of_base,
            # "~3x" at 4-8 processors: anything that rounds to 3.
            "tlr_about_3x_over_base_at_4_and_8p": lambda r: all(
                _tlr_over_base(r, n) > 2.5 for n in (4, 8)),
        }),
    _experiment(
        "fig11_applications", {"num_cpus": 16},
        "figure11", _app_results, {
            "tlr_never_loses_to_base": lambda r: all(
                _speedup(r, app, TLR) > 0.97 for app in r),
            "radiosity_tlr_speedup_above_1_3": lambda r: (
                _speedup(r, "radiosity", TLR) > 1.3),
            "mp3d_tlr_speedup_above_1_2": lambda r: (
                _speedup(r, "mp3d", TLR) > 1.2),
            "mp3d_mcs_loses_to_base": lambda r: (
                _speedup(r, "mp3d", MCS) < 1.0),
            "water_nsq_mcs_loses_to_base": lambda r: (
                _speedup(r, "water-nsq", MCS) < 1.0),
        }),
    _experiment(
        "tab_coarse_vs_fine", {"num_cpus": 16},
        "coarse-vs-fine", dict, {
            "coarse_tlr_beats_fine_base_by_1_3x": lambda r: (
                r["speedup_tlr_coarse_over_base_fine"] > 1.3),
            "coarse_tlr_beats_fine_tlr": lambda r: (
                r["speedup_tlr_coarse_over_tlr_fine"] > 1.0),
            "coarse_lock_more_than_doubles_base": lambda r: (
                r["coarse/BASE"] > 2 * r["fine/BASE"]),
        }),
    _experiment(
        "tab_rmw_predictor", {"num_cpus": 16},
        "rmw-predictor",
        lambda speedups: {"speedups_base_over_base_noopt": dict(speedups)},
        {
            "predictor_never_hurts": lambda r: all(
                s > 0.95
                for s in r["speedups_base_over_base_noopt"].values()),
            "predictor_helps_some_app": lambda r: any(
                s > 1.02
                for s in r["speedups_base_over_base_noopt"].values()),
        }),
    _experiment(
        "policies", _POLICIES,
        "policies", _policy_results, {
            "every_cell_passes_the_oracle": lambda r: (
                r["failed_cells"] == []),
            # The paper's policy queues on the data under contention;
            # the abort-based policy pays for restarts and fallbacks.
            "timestamp_at_most_requester_wins_when_contended": lambda r: all(
                r["cycles"][f"timestamp/{w}/{n}"]
                <= r["cycles"][f"requester-wins/{w}/{n}"]
                for w in ("single-counter", "linked-list")
                for n in _POLICIES["processor_counts"]),
        }),
    _experiment(
        "sched", _SCHED,
        "sched", _sched_results, {
            "every_cell_passes_the_oracle": lambda r: (
                r["failed_cells"] == []),
            "short_quantum_preempts_at_least_as_often":
                _short_quantum_preempts_more,
        }),
    _keyed(
        "profile", _PROFILE,
        lambda c: {f"{policy}/{workload}": RunSpec(
            workload=workload,
            config=SystemConfig(num_cpus=c["num_cpus"],
                                scheme=SyncScheme.TLR).with_policy(policy),
            workload_args={SIZE_PARAM[workload]: c["ops"]})
            for policy in c["policies"] for workload in c["workloads"]},
        _profile_results, {
            # Deferral queues where the nack policy restarts.
            "timestamp_aborts_at_most_nack": lambda r: all(
                r["totals"][f"timestamp/{w}"]["aborts"]
                <= r["totals"][f"nack/{w}"]["aborts"]
                for w in _PROFILE["workloads"]),
            "every_cell_contends": lambda r: all(
                t["attempts"] > t["commits"] > 0
                for t in r["totals"].values()),
        }),
    _keyed(
        "protocols", _PROTOCOLS,
        lambda c: {f"{protocol}/{name}/{scheme.value}": _cell(
            workload, c["num_cpus"], c["ops"], scheme=scheme,
            protocol=protocol)
            for protocol in c["protocols"]
            for scheme in (SyncScheme.BASE, SyncScheme.TLR)
            for name, workload in _PROTOCOL_WORKLOADS.items()},
        _protocol_results, {
            "tlr_beats_base_on_both_substrates": lambda r: all(
                r["cycles"][f"{p}/{w}/{TLR}"] < r["cycles"][f"{p}/{w}/{BASE}"]
                for p in _PROTOCOLS["protocols"]
                for w in _PROTOCOL_WORKLOADS),
        }),
    _keyed(
        "ablation_retention_policy",
        {"num_cpus": 8, "ops": 512, "policies": ["defer", "nack"]},
        # Retention by deferral is the timestamp policy; by NACK, nack.
        lambda c: {policy: _cell("linked-list", c["num_cpus"], c["ops"],
                                 contention_policy={"defer": "timestamp",
                                                    "nack": "nack"}[policy])
                   for policy in c["policies"]},
        _fields(cycles=_CYCLES, restarts=_RESTARTS,
                nacks=lambda run: run.stats.total("nacks_sent")), {
            "defer_sends_no_nacks": lambda r: r["defer/nacks"] == 0,
            "nack_sends_nacks": lambda r: r["nack/nacks"] > 0,
        }),
    _keyed(
        "ablation_single_block_relaxation", {"num_cpus": 8, "ops": 512},
        lambda c: {("relaxed" if relaxed else "strict"): _cell(
            "single-counter", c["num_cpus"], c["ops"],
            single_block_relaxation=relaxed) for relaxed in (True, False)},
        _fields(cycles=_CYCLES, restarts=_RESTARTS), {
            "relaxation_cuts_restarts": lambda r: (
                r["relaxed/restarts"] < r["strict/restarts"]),
            "relaxation_never_slows": lambda r: (
                r["relaxed/cycles"] <= r["strict/cycles"]),
        }),
    _keyed(
        # cholesky's common columns write 12 lines and its tall columns
        # 80: an 8-entry buffer overflows on every column update.
        "ablation_write_buffer",
        {"num_cpus": 8, "write_buffer_entries": [8, 16, 64]},
        lambda c: {f"wb{entries}": _cell("cholesky", c["num_cpus"],
                                         write_buffer_entries=entries)
                   for entries in c["write_buffer_entries"]},
        _fields(cycles=_CYCLES,
                fallbacks=lambda run: run.stats.total("resource_fallbacks"),
                elided=lambda run: run.stats.total("elisions_committed")), {
            # With 8 lines the elision predictor learns the column
            # locks are hopeless: far fewer sections commit lock-free.
            "big_buffer_elides_more": lambda r: (
                r["wb64/elided"] > r["wb8/elided"]),
        }),
    _keyed(
        "ablation_restart_backoff",
        {"backoff_steps": [0, 20, 60], "num_cpus": 8, "ops": 512},
        lambda c: {f"backoff{step}": _cell(
            "single-counter", c["num_cpus"], c["ops"],
            scheme=SyncScheme.TLR_STRICT_TS, restart_backoff_step=step)
            for step in c["backoff_steps"]},
        _fields(cycles=_CYCLES, restarts=_RESTARTS), {
            "backoff_suppresses_restart_storm": lambda r: (
                r["backoff20/restarts"] < r["backoff0/restarts"]),
        }),
    _keyed(
        "ablation_data_bandwidth",
        {"bandwidth_intervals": [0, 4, 16], "num_cpus": 8, "ops": 512},
        lambda c: {f"bw{interval}/{scheme.value}": _cell(
            "single-counter", c["num_cpus"], c["ops"], scheme=scheme,
            memory={"data_bandwidth_interval": interval})
            for interval in c["bandwidth_intervals"]
            for scheme in (SyncScheme.BASE, SyncScheme.TLR)},
        lambda runs: {key: run.cycles for key, run in runs.items()}, {
            "throttling_never_speeds_base": lambda r: (
                r[f"bw16/{BASE}"] >= r[f"bw0/{BASE}"]),
            "throttling_never_speeds_tlr": lambda r: (
                r[f"bw16/{TLR}"] >= r[f"bw0/{TLR}"]),
        }),
    _keyed(
        "ablation_untimestamped_policy",
        {"num_cpus": 4, "ops": 256, "policies": ["defer", "abort"]},
        lambda c: {policy: _cell("single-counter", c["num_cpus"], c["ops"],
                                 untimestamped_policy=policy)
                   for policy in c["policies"]},
        _fields(cycles=_CYCLES, restarts=_RESTARTS), {
            "defer_equals_abort": lambda r: (
                r["defer/cycles"] == r["abort/cycles"]
                and r["defer/restarts"] == r["abort/restarts"]),
        }),
)}


# ----------------------------------------------------------------------
# Running cells
# ----------------------------------------------------------------------
def regenerate(entry: Artifact, *, jobs: int = 1) -> dict:
    """Run ``entry``'s cells, uncached, and return the file's payload."""
    return {"bench": entry.bench, "config": entry.config,
            "results": entry.results(entry.config, jobs)}


def failed_claims(entry: Artifact, results: dict) -> list[str]:
    """Names of ``entry``'s claims that ``results`` break."""
    return [name for name, claim in entry.claims.items()
            if not claim(results)]
