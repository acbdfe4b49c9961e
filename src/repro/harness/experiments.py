"""The paper's experiments, each declared once (the per-experiment
index of DESIGN.md).

Each experiment is a planner and a reducer.  ``plan_*`` turns the
experiment's parameters into the list of
:class:`~repro.harness.spec.RunSpec` the paper's plot covers;
``reduce_*`` turns those specs and their outcomes into the structured
result that :mod:`repro.harness.report` prints as the same rows/series
the paper reports.  :data:`EXPERIMENTS` pairs them by name, with
whether the cells run under the verifier, and :func:`run_experiment`
executes any entry: plan, :func:`repro.harness.parallel.execute`,
reduce.  ``repro.harness.run("figure9", jobs=4)``,
``submit(JobSpec.sweep("figure9"))`` and the artifact registry
(:mod:`repro.harness.artifacts`) all go through it, so a figure and
its committed artifact cannot plan different cells.  The runner takes
the uniform engine keywords -- ``jobs`` (worker processes; 1 = serial,
the determinism baseline), ``timeout`` (per-run wall-clock seconds),
``cache`` (result cache) and ``validate`` -- and passes every other
keyword to the planner.

Workload sizes default to simulator scale (see EXPERIMENTS.md) but
accept overrides so the benchmarks can run quick or thorough.

A run that livelocks, deadlocks or times out appears as a ``None`` in
the sweep series plus a :class:`~repro.harness.parallel.FailedRun` at
its requested seed in ``SweepResult.failures``, instead of aborting
the whole sweep.  A reducer that cannot do without a run raises
:class:`~repro.sim.kernel.SimulationError` naming its seed.  No cell
is ever re-run under another seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.harness import parallel
from repro.harness.config import SchedConfig, SyncScheme, SystemConfig
from repro.harness.parallel import FailedRun
from repro.harness.runner import RunResult
from repro.harness.spec import (SIZE_PARAM, RunSpec, check_schema,
                                scheme_from_str, scheme_to_str, stamp_schema)
from repro.obs import summarize_metrics
from repro.workloads.apps import ALL_APPS

MICRO_SCHEMES = (SyncScheme.BASE, SyncScheme.MCS, SyncScheme.SLE,
                 SyncScheme.TLR)
APP_SCHEMES = (SyncScheme.BASE, SyncScheme.SLE, SyncScheme.TLR,
               SyncScheme.MCS)
DEFAULT_PROCESSOR_COUNTS = (2, 4, 6, 8, 10, 12, 14, 16)


class SweepLookupError(KeyError, ValueError):
    """A sweep was asked for a point it does not contain.

    Subclasses both :class:`KeyError` (lookup semantics) and
    :class:`ValueError` (what ``list.index`` historically raised here).
    """


@dataclass
class SweepResult:
    """One microbenchmark figure: cycles[scheme][processor_count].

    A series slot is ``None`` when that configuration failed (see
    ``failures``).
    """

    name: str
    processor_counts: list[int]
    series: dict[SyncScheme, list[Optional[int]]] = field(
        default_factory=dict)
    extra: dict[str, dict] = field(default_factory=dict)
    failures: list[FailedRun] = field(default_factory=list)

    def cycles(self, scheme: SyncScheme, num_cpus: int) -> int:
        if scheme not in self.series:
            raise SweepLookupError(
                f"sweep {self.name!r} has no series for scheme "
                f"{getattr(scheme, 'value', scheme)!r}; available schemes: "
                f"{[s.value for s in self.series]}")
        if num_cpus not in self.processor_counts:
            raise SweepLookupError(
                f"sweep {self.name!r} has no run at {num_cpus} processors "
                f"for scheme {scheme.value!r}; available processor counts: "
                f"{self.processor_counts}")
        value = self.series[scheme][self.processor_counts.index(num_cpus)]
        if value is None:
            raise SweepLookupError(
                f"run ({scheme.value!r}, {num_cpus} cpus) of sweep "
                f"{self.name!r} failed (see SweepResult.failures)")
        return value

    # -- serialization (stable public contract) ------------------------
    def to_dict(self) -> dict:
        return stamp_schema({
            "name": self.name,
            "processor_counts": list(self.processor_counts),
            "series": {scheme_to_str(s): list(v)
                       for s, v in self.series.items()},
            "failures": [f.to_dict() for f in self.failures],
            "extra": dict(self.extra),
        })

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        check_schema(data, "SweepResult")
        return cls(
            name=data["name"],
            processor_counts=list(data["processor_counts"]),
            series={scheme_from_str(k): list(v)
                    for k, v in (data.get("series") or {}).items()},
            extra=dict(data.get("extra") or {}),
            failures=[FailedRun.from_dict(f)
                      for f in (data.get("failures") or [])])


@dataclass
class AppResult:
    """One application's Figure 11 bars plus MCS comparison.

    A scheme whose run failed is absent from the per-scheme dicts and
    recorded in ``failures``.
    """

    name: str
    cycles: dict[SyncScheme, int]
    lock_cycles: dict[SyncScheme, int]
    restarts: dict[SyncScheme, int]
    resource_fallbacks: dict[SyncScheme, int]
    critical_sections: dict[SyncScheme, int]
    failures: list[FailedRun] = field(default_factory=list)

    def speedup(self, scheme: SyncScheme,
                over: SyncScheme = SyncScheme.BASE) -> float:
        return self.cycles[over] / self.cycles[scheme]

    def normalized_parts(self, scheme: SyncScheme) -> tuple[float, float]:
        """(lock, non-lock) contributions normalized to BASE cycles --
        the two-part bars of Figure 11.  ``lock_cycles`` is the average
        per-processor stall charged to lock-variable accesses (the
        paper's commit-time attribution)."""
        base = self.cycles[SyncScheme.BASE]
        total = self.cycles[scheme] / base
        lock_share = min(1.0, self.lock_cycles[scheme]
                         / max(1, self.cycles[scheme]))
        return total * lock_share, total * (1.0 - lock_share)

    # -- serialization (stable public contract) ------------------------
    def to_dict(self) -> dict:
        def keyed(mapping: dict[SyncScheme, int]) -> dict[str, int]:
            return {scheme_to_str(s): v for s, v in mapping.items()}
        return stamp_schema({
            "name": self.name,
            "cycles": keyed(self.cycles),
            "lock_cycles": keyed(self.lock_cycles),
            "restarts": keyed(self.restarts),
            "resource_fallbacks": keyed(self.resource_fallbacks),
            "critical_sections": keyed(self.critical_sections),
            "failures": [f.to_dict() for f in self.failures],
        })

    @classmethod
    def from_dict(cls, data: dict) -> "AppResult":
        check_schema(data, "AppResult")

        def unkeyed(mapping: Optional[dict]) -> dict[SyncScheme, int]:
            return {scheme_from_str(k): v
                    for k, v in (mapping or {}).items()}
        return cls(
            name=data["name"],
            cycles=unkeyed(data.get("cycles")),
            lock_cycles=unkeyed(data.get("lock_cycles")),
            restarts=unkeyed(data.get("restarts")),
            resource_fallbacks=unkeyed(data.get("resource_fallbacks")),
            critical_sections=unkeyed(data.get("critical_sections")),
            failures=[FailedRun.from_dict(f)
                      for f in (data.get("failures") or [])])


# ----------------------------------------------------------------------
# Planning helpers
# ----------------------------------------------------------------------
def _spec(workload: str, config: SystemConfig, scheme: SyncScheme,
          num_cpus: int, validate: bool = True, **workload_args) -> RunSpec:
    cfg = config.with_scheme(scheme)
    cfg.num_cpus = num_cpus
    return RunSpec(workload=workload, config=cfg,
                   workload_args=workload_args, validate=validate)


def _require(outcome: parallel.Outcome) -> RunResult:
    """Unwrap an outcome whose result the experiment cannot do without."""
    if isinstance(outcome, FailedRun):
        raise parallel.SimulationError(
            f"run ({outcome.workload!r}, {outcome.scheme}, "
            f"{outcome.num_cpus} cpus, seed {outcome.seed}) failed: "
            f"{outcome.error}: {outcome.message}")
    return outcome


# ----------------------------------------------------------------------
# Figures 8-10: microbenchmarks vs processor count
# ----------------------------------------------------------------------
def _plan_sweep(workload: str, workload_args: dict,
                schemes: Sequence[SyncScheme],
                processor_counts: Sequence[int],
                config: Optional[SystemConfig],
                validate: bool) -> list[RunSpec]:
    base = config or SystemConfig()
    return [_spec(workload, base, scheme, n, validate, **workload_args)
            for scheme in schemes for n in processor_counts]


def plan_figure8(total_increments: int = 2048,
                 processor_counts: Sequence[int] = DEFAULT_PROCESSOR_COUNTS,
                 config: Optional[SystemConfig] = None,
                 validate: bool = True) -> list[RunSpec]:
    """Coarse-grain/no-conflicts (paper Figure 8)."""
    return _plan_sweep("multiple-counter",
                       {"total_increments": total_increments},
                       MICRO_SCHEMES, processor_counts, config, validate)


def plan_figure9(total_increments: int = 1024,
                 processor_counts: Sequence[int] = DEFAULT_PROCESSOR_COUNTS,
                 config: Optional[SystemConfig] = None,
                 include_strict_ts: bool = True,
                 validate: bool = True) -> list[RunSpec]:
    """Fine-grain/high-conflict, including TLR-strict-ts (Figure 9)."""
    schemes = list(MICRO_SCHEMES)
    if include_strict_ts:
        schemes.append(SyncScheme.TLR_STRICT_TS)
    return _plan_sweep("single-counter",
                       {"total_increments": total_increments},
                       schemes, processor_counts, config, validate)


def plan_figure10(total_ops: int = 1024,
                  processor_counts: Sequence[int] = DEFAULT_PROCESSOR_COUNTS,
                  config: Optional[SystemConfig] = None,
                  validate: bool = True) -> list[RunSpec]:
    """Fine-grain/dynamic-conflicts doubly-linked list (Figure 10)."""
    return _plan_sweep("linked-list", {"total_ops": total_ops},
                       MICRO_SCHEMES, processor_counts, config, validate)


def reduce_sweep(specs: Sequence[RunSpec],
                 outcomes: Sequence[parallel.Outcome],
                 name: str = "sweep") -> SweepResult:
    """cycles[scheme][processor_count] from a planned sweep."""
    result = SweepResult(name=name, processor_counts=list(
        dict.fromkeys(spec.config.num_cpus for spec in specs)))
    metrics: dict[str, dict] = {}
    for spec, outcome in zip(specs, outcomes):
        scheme, n = spec.config.scheme, spec.config.num_cpus
        series = result.series.setdefault(scheme, [])
        if isinstance(outcome, FailedRun):
            series.append(None)
            result.failures.append(outcome)
        else:
            series.append(outcome.cycles)
            # Summarized conflict telemetry per sweep point (None when
            # the run had config.metrics off or came from a pre-metrics
            # cache payload); deterministic, so safe in to_dict().
            if outcome.metrics is not None:
                metrics[f"{scheme_to_str(scheme)}/{n}"] = (
                    summarize_metrics(outcome.metrics))
    if metrics:
        result.extra["metrics"] = metrics
    return result


# ----------------------------------------------------------------------
# Figure 7 intuition: queueing on data under pure conflict
# ----------------------------------------------------------------------
def plan_figure7(num_cpus: int = 4, total_increments: int = 256,
                 config: Optional[SystemConfig] = None,
                 validate: bool = True) -> list[RunSpec]:
    """The Section 6.1 intuition: under TLR, processors conflicting on
    one line order on the data itself -- no restarts, no lock requests.

    The reducer returns the TLR run's restart/deferral counts so the
    claim "no transaction requires to restart" can be checked
    quantitatively.
    """
    return [_spec("single-counter", config or SystemConfig(),
                  SyncScheme.TLR, num_cpus, validate,
                  total_increments=total_increments)]


def reduce_figure7(specs: Sequence[RunSpec],
                   outcomes: Sequence[parallel.Outcome]) -> dict:
    outcome = _require(outcomes[0])
    summary = outcome.stats.summary()
    return {
        "cycles": outcome.cycles,
        "restarts": summary["restarts"],
        "deferrals": summary["requests_deferred"],
        "elisions_committed": summary["elisions_committed"],
        "critical_sections": summary["critical_sections"],
    }


# ----------------------------------------------------------------------
# Figure 11: applications at 16 processors
# ----------------------------------------------------------------------
def plan_figure11(num_cpus: int = 16,
                  apps: Optional[Iterable[str]] = None,
                  schemes: Sequence[SyncScheme] = APP_SCHEMES,
                  config: Optional[SystemConfig] = None,
                  validate: bool = True) -> list[RunSpec]:
    """Application performance, normalized to BASE, with the lock /
    non-lock breakdown (Figure 11) and the in-text MCS comparison."""
    base = config or SystemConfig()
    names = list(apps) if apps is not None else list(ALL_APPS)
    return [_spec(name, base, scheme, num_cpus, validate)
            for name in names for scheme in schemes]


def reduce_figure11(specs: Sequence[RunSpec],
                    outcomes: Sequence[parallel.Outcome]
                    ) -> dict[str, AppResult]:
    results: dict[str, AppResult] = {}
    for spec, outcome in zip(specs, outcomes):
        app = results.setdefault(spec.workload, AppResult(
            name=spec.workload, cycles={}, lock_cycles={}, restarts={},
            resource_fallbacks={}, critical_sections={}))
        if isinstance(outcome, FailedRun):
            app.failures.append(outcome)
            continue
        scheme = spec.config.scheme
        app.cycles[scheme] = outcome.cycles
        # Average per-processor lock stall (the paper's commit-time
        # attribution), to compare against parallel time.
        app.lock_cycles[scheme] = (outcome.stats.lock_stall_cycles
                                   // max(1, spec.config.num_cpus))
        app.restarts[scheme] = outcome.stats.restarts
        app.resource_fallbacks[scheme] = (
            outcome.stats.total("resource_fallbacks"))
        app.critical_sections[scheme] = (
            outcome.stats.total("critical_sections"))
    return results


# ----------------------------------------------------------------------
# Section 6.3 in-text experiments
# ----------------------------------------------------------------------
def plan_coarse_vs_fine(num_cpus: int = 16,
                        config: Optional[SystemConfig] = None,
                        validate: bool = True) -> list[RunSpec]:
    """mp3d with one coarse lock vs per-cell locks (Section 6.3)."""
    base = config or SystemConfig()
    return [_spec(workload, base, scheme, num_cpus, validate)
            for workload in ("mp3d", "mp3d-coarse")
            for scheme in (SyncScheme.BASE, SyncScheme.TLR, SyncScheme.MCS)]


def reduce_coarse_vs_fine(specs: Sequence[RunSpec],
                          outcomes: Sequence[parallel.Outcome]) -> dict:
    out: dict[str, int] = {}
    for spec, outcome in zip(specs, outcomes):
        grain = "coarse" if spec.workload == "mp3d-coarse" else "fine"
        out[f"{grain}/{spec.config.scheme.value}"] = (
            _require(outcome).cycles)
    out["speedup_tlr_coarse_over_base_fine"] = (
        out["fine/BASE"] / out["coarse/BASE+SLE+TLR"])
    out["speedup_tlr_coarse_over_tlr_fine"] = (
        out["fine/BASE+SLE+TLR"] / out["coarse/BASE+SLE+TLR"])
    return out


def plan_rmw_predictor(num_cpus: int = 16,
                       apps: Optional[Iterable[str]] = None,
                       config: Optional[SystemConfig] = None,
                       validate: bool = True) -> list[RunSpec]:
    """BASE with vs without the read-modify-write predictor: the
    speedup list at the end of Section 6.3 (BASE over BASE-no-opt)."""
    base = config or SystemConfig()
    names = list(apps) if apps is not None else list(ALL_APPS)
    specs = []
    for name in names:
        for enabled in (True, False):
            spec = _spec(name, base, SyncScheme.BASE, num_cpus, validate)
            spec.config.spec.rmw_predictor_enabled = enabled
            specs.append(spec)
    return specs


def reduce_rmw_predictor(specs: Sequence[RunSpec],
                         outcomes: Sequence[parallel.Outcome]
                         ) -> dict[str, float]:
    cycles = {(spec.workload, spec.config.spec.rmw_predictor_enabled):
              _require(outcome).cycles
              for spec, outcome in zip(specs, outcomes)}
    return {name: cycles[(name, False)] / cycles[(name, True)]
            for name in dict.fromkeys(spec.workload for spec in specs)}


# ----------------------------------------------------------------------
# Verified experiments: every run through the oracle and monitors
# ----------------------------------------------------------------------
def _seed_groups(specs: Sequence[RunSpec], verdicts: Sequence,
                 key) -> dict[tuple, list]:
    """Verdicts grouped by ``key(spec)``: one cell's seeds each."""
    groups: dict[tuple, list] = {}
    for spec, verdict in zip(specs, verdicts):
        groups.setdefault(key(spec), []).append(verdict)
    return groups


def _verified_cell(per_seed: list) -> dict:
    """One grid cell from its seeds' verdicts."""
    violations = [v for r in per_seed for v in r.violations]
    errors = [r.error for r in per_seed if r.error]
    return {
        "ok": all(r.ok for r in per_seed),
        "cycles": per_seed[0].cycles,
        "num_txns": sum(r.num_txns for r in per_seed),
        "violations": violations[:4],
        "error": errors[0] if errors else None,
        "summary": dict(per_seed[0].summary),
        # Full telemetry payload of the cell's first seed: counters,
        # gauges and the deferral-depth / retry / latency histograms
        # (what BENCH_policies.json publishes per policy).
        "metrics": per_seed[0].metrics,
    }


# ----------------------------------------------------------------------
# Contention-policy lab: the policies x workloads x processors grid
# ----------------------------------------------------------------------
DEFAULT_POLICY_GRID_POLICIES = ("timestamp", "nack", "requester-wins",
                                "backoff")
DEFAULT_POLICY_GRID_WORKLOADS = ("single-counter", "linked-list",
                                 "ocean-cont", "barnes")
DEFAULT_POLICY_GRID_PROCS = (2, 4, 8)


@dataclass
class PolicyGridResult:
    """Contention-policy grid: every cell is one (policy, workload,
    processor-count) point, run ``seeds`` times through the *verifier*
    (oracle + invariant monitors), not the bare sweep engine -- a
    policy that goes fast by going wrong fails its cell.
    """

    policies: list[str]
    workloads: list[str]
    processor_counts: list[int]
    seeds: int
    cells: dict[str, dict] = field(default_factory=dict)

    @staticmethod
    def key(policy: str, workload: str, num_cpus: int) -> str:
        return f"{policy}/{workload}/{num_cpus}"

    def cell(self, policy: str, workload: str, num_cpus: int) -> dict:
        return self.cells[self.key(policy, workload, num_cpus)]

    @property
    def ok(self) -> bool:
        return all(cell["ok"] for cell in self.cells.values())

    @property
    def failures(self) -> list[str]:
        return [key for key, cell in self.cells.items() if not cell["ok"]]

    # -- serialization (stable public contract) ------------------------
    def to_dict(self) -> dict:
        return stamp_schema({
            "policies": list(self.policies),
            "workloads": list(self.workloads),
            "processor_counts": list(self.processor_counts),
            "seeds": self.seeds,
            "cells": {k: dict(v) for k, v in self.cells.items()}})

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyGridResult":
        check_schema(data, "PolicyGridResult")
        return cls(policies=list(data["policies"]),
                   workloads=list(data["workloads"]),
                   processor_counts=list(data["processor_counts"]),
                   seeds=data.get("seeds", 1),
                   cells={k: dict(v)
                          for k, v in (data.get("cells") or {}).items()})


def plan_policy_grid(policies: Optional[Sequence[str]] = None,
                     workloads: Optional[Sequence[str]] = None,
                     processor_counts: Sequence[int] =
                     DEFAULT_POLICY_GRID_PROCS,
                     seeds: int = 3,
                     ops: int = 96,
                     app_scale: int = 12,
                     base_seed: int = 0,
                     config: Optional[SystemConfig] = None,
                     validate: bool = True) -> list[RunSpec]:
    """Compare contention-management policies under verification.

    Every grid cell runs under TLR with the named policy installed and
    the full :mod:`repro.verify` instrumentation attached -- the
    serializability oracle, the policy-aware deferral-order monitor and
    the starvation watchdog all judge every run.  ``ops`` sizes the
    microbenchmarks; ``app_scale`` sizes the application kernels.
    """
    base = config or SystemConfig()
    specs: list[RunSpec] = []
    for policy in policies or DEFAULT_POLICY_GRID_POLICIES:
        for workload in workloads or DEFAULT_POLICY_GRID_WORKLOADS:
            size_key = SIZE_PARAM[workload]
            size = app_scale if size_key == "scale" else ops
            for n in processor_counts:
                for s in range(seeds):
                    cfg = replace(
                        base.with_scheme(SyncScheme.TLR).with_policy(policy),
                        num_cpus=n, seed=base_seed + s)
                    specs.append(RunSpec(workload=workload, config=cfg,
                                         workload_args={size_key: size},
                                         validate=validate))
    return specs


def reduce_policy_grid(specs: Sequence[RunSpec],
                       verdicts: Sequence) -> PolicyGridResult:
    groups = _seed_groups(specs, verdicts, lambda spec: (
        spec.config.spec.contention_policy, spec.workload,
        spec.config.num_cpus))
    grid = PolicyGridResult(
        policies=list(dict.fromkeys(key[0] for key in groups)),
        workloads=list(dict.fromkeys(key[1] for key in groups)),
        processor_counts=list(dict.fromkeys(key[2] for key in groups)),
        seeds=len(specs) // max(1, len(groups)))
    for (policy, workload, n), per_seed in groups.items():
        grid.cells[grid.key(policy, workload, n)] = _verified_cell(per_seed)
    return grid


# ----------------------------------------------------------------------
# Scheduler lab: schedulers x quanta x policies x workloads, preemptive
# ----------------------------------------------------------------------
DEFAULT_SCHED_GRID_SCHEDULERS = ("rr", "mlfq", "cfs")
DEFAULT_SCHED_GRID_QUANTA = (200, 800)
DEFAULT_SCHED_GRID_POLICIES = ("timestamp", "nack")
DEFAULT_SCHED_GRID_WORKLOADS = ("single-counter", "linked-list")

#: sched.* counters lifted from each cell's metrics payload into the
#: cell itself, so BENCH_sched.json readers see them without digging
#: through histograms.
_SCHED_CELL_COUNTERS = ("preemptions", "migrations",
                        "context_switch_aborts")


@dataclass
class SchedGridResult:
    """Preemptive-scheduler grid: every cell is one (scheduler, quantum,
    policy, workload) point run with more runtime threads than CPU slots
    (``threads_per_cpu`` > 1), ``seeds`` times, through the *verifier*
    -- timer interrupts land inside critical sections and speculative
    regions, and the oracle plus the invariant monitors judge every
    run.  Cells carry the context-switch-abort / preemption counters so
    the cost of preempting an elision mid-flight is measurable.
    """

    schedulers: list[str]
    quanta: list[int]
    policies: list[str]
    workloads: list[str]
    seeds: int
    num_cpus: int
    threads_per_cpu: int
    cells: dict[str, dict] = field(default_factory=dict)

    @staticmethod
    def key(scheduler: str, quantum: int, policy: str,
            workload: str) -> str:
        return f"{scheduler}/q{quantum}/{policy}/{workload}"

    def cell(self, scheduler: str, quantum: int, policy: str,
             workload: str) -> dict:
        return self.cells[self.key(scheduler, quantum, policy, workload)]

    @property
    def ok(self) -> bool:
        return all(cell["ok"] for cell in self.cells.values())

    @property
    def failures(self) -> list[str]:
        return [key for key, cell in self.cells.items() if not cell["ok"]]

    # -- serialization (stable public contract) ------------------------
    def to_dict(self) -> dict:
        return stamp_schema({
            "schedulers": list(self.schedulers),
            "quanta": list(self.quanta),
            "policies": list(self.policies),
            "workloads": list(self.workloads),
            "seeds": self.seeds,
            "num_cpus": self.num_cpus,
            "threads_per_cpu": self.threads_per_cpu,
            "cells": {k: dict(v) for k, v in self.cells.items()}})

    @classmethod
    def from_dict(cls, data: dict) -> "SchedGridResult":
        check_schema(data, "SchedGridResult")
        return cls(schedulers=list(data["schedulers"]),
                   quanta=list(data["quanta"]),
                   policies=list(data["policies"]),
                   workloads=list(data["workloads"]),
                   seeds=data.get("seeds", 1),
                   num_cpus=data.get("num_cpus", 4),
                   threads_per_cpu=data.get("threads_per_cpu", 2),
                   cells={k: dict(v)
                          for k, v in (data.get("cells") or {}).items()})


def plan_sched_grid(schedulers: Optional[Sequence[str]] = None,
                    quanta: Optional[Sequence[int]] = None,
                    policies: Optional[Sequence[str]] = None,
                    workloads: Optional[Sequence[str]] = None,
                    num_cpus: int = 4,
                    threads_per_cpu: int = 2,
                    migrate: bool = False,
                    seeds: int = 2,
                    ops: int = 96,
                    app_scale: int = 12,
                    base_seed: int = 0,
                    config: Optional[SystemConfig] = None,
                    validate: bool = True) -> list[RunSpec]:
    """Stress lock elision under preemptive scheduling.

    Every grid cell runs TLR with ``num_cpus`` runtime threads
    multiplexed over ``num_cpus // threads_per_cpu`` CPU slots by the
    named scheduler -- so timer interrupts preempt threads *inside*
    critical sections and speculative regions, aborting in-flight
    elision (the counters each cell carries quantify how often).  The
    full :mod:`repro.verify` instrumentation judges every run: a
    schedule that breaks serializability or starves a thread fails its
    cell.
    """
    base = config or SystemConfig()
    specs: list[RunSpec] = []
    for scheduler in schedulers or DEFAULT_SCHED_GRID_SCHEDULERS:
        for quantum in quanta or DEFAULT_SCHED_GRID_QUANTA:
            for policy in policies or DEFAULT_SCHED_GRID_POLICIES:
                for workload in workloads or DEFAULT_SCHED_GRID_WORKLOADS:
                    size_key = SIZE_PARAM[workload]
                    size = app_scale if size_key == "scale" else ops
                    for s in range(seeds):
                        cfg = replace(
                            base.with_scheme(SyncScheme.TLR)
                                .with_policy(policy),
                            num_cpus=num_cpus, seed=base_seed + s,
                            sched=SchedConfig(
                                scheduler=scheduler, quantum=quantum,
                                threads_per_cpu=threads_per_cpu,
                                migrate=migrate))
                        specs.append(RunSpec(
                            workload=workload, config=cfg,
                            workload_args={size_key: size},
                            validate=validate))
    return specs


def reduce_sched_grid(specs: Sequence[RunSpec],
                      verdicts: Sequence) -> SchedGridResult:
    groups = _seed_groups(specs, verdicts, lambda spec: (
        spec.config.sched.scheduler, spec.config.sched.quantum,
        spec.config.spec.contention_policy, spec.workload))
    first = specs[0].config
    grid = SchedGridResult(
        schedulers=list(dict.fromkeys(key[0] for key in groups)),
        quanta=list(dict.fromkeys(key[1] for key in groups)),
        policies=list(dict.fromkeys(key[2] for key in groups)),
        workloads=list(dict.fromkeys(key[3] for key in groups)),
        seeds=len(specs) // len(groups),
        num_cpus=first.num_cpus,
        threads_per_cpu=first.sched.threads_per_cpu)
    for (scheduler, quantum, policy, workload), per_seed in groups.items():
        cell = _verified_cell(per_seed)
        # Summed over seeds: one seed with zero preemptions must not
        # hide another that aborted elisions all run long.
        for name in _SCHED_CELL_COUNTERS:
            cell[name] = sum(
                ((r.metrics or {}).get("counters") or {})
                .get(f"sched.{name}", 0) for r in per_seed)
        grid.cells[grid.key(scheduler, quantum, policy, workload)] = cell
    return grid


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Experiment:
    """One planned experiment: ``plan(**params)`` gives its cells,
    ``reduce(cells, outcomes)`` its result, and ``verified`` runs the
    cells under the verifier (outcomes are ``VerifyResult`` verdicts)."""

    name: str
    plan: Callable[..., list[RunSpec]]
    reduce: Callable[[list[RunSpec], list], Any]
    verified: bool = False


EXPERIMENTS: dict[str, Experiment] = {entry.name: entry for entry in (
    Experiment("figure7", plan_figure7, reduce_figure7),
    Experiment("figure8", plan_figure8, partial(
        reduce_sweep, name="figure8-multiple-counter")),
    Experiment("figure9", plan_figure9, partial(
        reduce_sweep, name="figure9-single-counter")),
    Experiment("figure10", plan_figure10, partial(
        reduce_sweep, name="figure10-linked-list")),
    Experiment("figure11", plan_figure11, reduce_figure11),
    Experiment("coarse-vs-fine", plan_coarse_vs_fine,
               reduce_coarse_vs_fine),
    Experiment("rmw-predictor", plan_rmw_predictor, reduce_rmw_predictor),
    Experiment("policies", plan_policy_grid, reduce_policy_grid,
               verified=True),
    Experiment("sched", plan_sched_grid, reduce_sched_grid, verified=True),
)}


def run_experiment(name: str, *, jobs: int = 1,
                   timeout: Optional[float] = None,
                   cache=None,
                   validate: bool = True,
                   **params) -> Any:
    """Plan, execute and reduce the registered experiment ``name``;
    ``params`` go to its planner."""
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: "
            f"{sorted(EXPERIMENTS)}") from None
    specs = experiment.plan(validate=validate, **params)
    outcomes, _ = parallel.execute(specs, jobs=jobs, timeout=timeout,
                                   cache=cache, verified=experiment.verified)
    return experiment.reduce(specs, outcomes)
