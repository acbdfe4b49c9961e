"""Seed-fanned schedule exploration with failure shrinking.

One verified run answers "was *this* interleaving serializable?".  The
explorer answers the useful question -- "can we find an interleaving
that is not?" -- by fanning a spec across hundreds of seeds (and,
optionally, the kernel's schedule-chaos choice points) through the sweep
engine itself: :func:`repro.harness.parallel.execute` with
``verified=True`` runs every seed under the verifier, with the same
process pool, kernel deadline and on-disk result cache as a plain
sweep.  The verifier has one configuration: the footprint recorder,
the serializability oracle and every invariant monitor (the strict
MOESI check included) judge every run, and the first monitor
violation stops it.  Verification failures are **findings**, so unlike
performance sweeps there are no retry-with-bumped-seed semantics: a
failing seed is reported, then *shrunk* -- workload size halved while
the failure reproduces, then the processor count -- and the minimal
reproduction is re-run with a :class:`~repro.record.FlightRecorder`
attached.  That record log is the failure's one event history: it is
saved for ``repro replay`` and time-travel queries, and the records
around the first violation, rendered one per line, are the window the
shrunk failure prints.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.harness.machine import Machine
from repro.harness.parallel import execute
from repro.harness.spec import (SIZE_PARAM, RunSpec, check_schema,
                                scheme_to_str, stamp_schema)
from repro.obs import MachineMetrics
from repro.runtime.program import ValidationError
from repro.sim.kernel import RunTimeout, SimulationError
from repro.verify.monitors import InvariantViolation, MonitorSuite
from repro.verify.oracle import SerializabilityOracle
from repro.verify.recorder import FootprintRecorder

# Bumped whenever the recorder/oracle/monitor semantics change in a way
# that invalidates cached verification verdicts.
# v2: VerifyResult grew ``cycles``/``summary``; monitors became
#     contention-policy aware (repro.policies).
# v3: VerifyResult grew ``metrics`` (repro.obs conflict telemetry);
#     cached pre-v3 verdicts would come back without it.
# v4: verdict payloads are schema-stamped (``"schema"`` field, checked
#     by ``from_dict``); pre-v4 cached verdicts lack the stamp.
# v5: VerifyResult grew ``record_log`` (repro.record auto-capture of
#     the shrunk failing schedule); pre-v5 verdicts lack the field.
# v6: the verifier has one fixed configuration, so the key drops the
#     ``options`` block (the monitor, oracle and strict-MOESI switches
#     and the watchdog period and patience) that v5 keys carried.
VERIFY_FINGERPRINT_VERSION = 6

#: Cycles of log to render before/after the first violation.
TRACE_WINDOW_BEFORE = 2_000
TRACE_WINDOW_AFTER = 500
#: Tap records to render when no violation names its time.
TRACE_TAIL_TAPS = 80


@dataclass
class VerifyResult:
    """Verdict of one verified run."""

    workload: str
    scheme: str
    num_cpus: int
    seed: int
    ok: bool
    error: Optional[str] = None        # exception that ended the run
    violations: list[str] = field(default_factory=list)
    num_txns: int = 0
    edges: dict = field(default_factory=dict)
    elapsed: float = 0.0
    cycles: int = 0                    # simulated parallel execution time
    summary: dict = field(default_factory=dict)  # key machine counters
    # Conflict telemetry (repro.obs registry export); None when loaded
    # from a pre-v3 cached verdict.
    metrics: Optional[dict] = None
    # Path of the auto-captured record log (repro.record) for this
    # run's schedule -- set on shrunk failing verdicts; replay it with
    # ``repro replay <path>``.
    record_log: Optional[str] = None
    # Raw log bytes when the run was executed with ``record=True`` in
    # this process; never serialized (the path above is the durable
    # handle).
    log_bytes: Optional[bytes] = field(default=None, repr=False,
                                       compare=False)

    def to_dict(self) -> dict:
        return stamp_schema({
            "workload": self.workload, "scheme": self.scheme,
            "num_cpus": self.num_cpus, "seed": self.seed,
            "ok": self.ok, "error": self.error,
            "violations": list(self.violations),
            "num_txns": self.num_txns, "edges": dict(self.edges),
            "elapsed": self.elapsed, "cycles": self.cycles,
            "summary": dict(self.summary),
            "metrics": self.metrics,
            "record_log": self.record_log})

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyResult":
        check_schema(data, "VerifyResult")
        return cls(workload=data["workload"], scheme=data["scheme"],
                   num_cpus=data["num_cpus"], seed=data["seed"],
                   ok=data["ok"], error=data.get("error"),
                   violations=list(data.get("violations") or []),
                   num_txns=data.get("num_txns", 0),
                   edges=dict(data.get("edges") or {}),
                   elapsed=data.get("elapsed", 0.0),
                   cycles=data.get("cycles", 0),
                   summary=dict(data.get("summary") or {}),
                   metrics=data.get("metrics"),
                   record_log=data.get("record_log"))

    def headline(self) -> str:
        status = "ok" if self.ok else "FAIL"
        extra = ""
        if self.error:
            extra = f" -- {self.error}"
        elif self.violations:
            extra = f" -- {self.violations[0]}"
        return (f"{self.workload}/{self.scheme} cpus={self.num_cpus} "
                f"seed={self.seed}: {status} ({self.num_txns} txns)"
                f"{extra}")


# ----------------------------------------------------------------------
# One verified run
# ----------------------------------------------------------------------
def verify_run(spec: RunSpec, record: bool = False,
               timeout: Optional[float] = None) -> VerifyResult:
    """Build, instrument and run one spec; judge the execution.

    With ``record``, a :class:`~repro.record.FlightRecorder` captures
    the run's binary event log into the verdict's ``log_bytes`` -- the
    harness mode is embedded so ``repro replay`` re-attaches the
    monitors (their watchdog events are part of the recorded
    schedule).  ``timeout`` bounds the simulation's wall-clock seconds
    (not the oracle's post-pass): past it the kernel raises
    :class:`~repro.sim.kernel.RunTimeout`, which propagates.
    """
    started = time.perf_counter()
    workload = spec.build_workload()
    machine = Machine(spec.config)
    if timeout:
        machine.sim.deadline = time.monotonic() + timeout
    flight = None
    if record:
        from repro.record import FlightRecorder
        flight = FlightRecorder(
            spec, locks=sorted(workload.lock_addrs),
            harness={"kind": "verify"}).attach(machine)
    collector = (MachineMetrics().attach(machine)
                 if spec.config.metrics else None)
    recorder = FootprintRecorder().attach(machine)
    monitors = MonitorSuite(machine).attach()
    error: Optional[str] = None
    try:
        machine.run_workload(workload, validate=spec.validate)
    except RunTimeout:
        raise  # no verdict to judge: the run was cut short
    except (InvariantViolation, ValidationError, SimulationError) as exc:
        error = f"{type(exc).__name__}: {exc}"

    report = SerializabilityOracle(recorder).check(machine.store.snapshot())
    violations = [str(v) for v in monitors.violations]
    violations.extend(str(v) for v in report.violations)

    stats_image = machine.stats.summary()
    summary = {key: stats_image.get(key, 0)
               for key in ("restarts", "requests_deferred", "nacks_sent",
                           "elisions_committed", "lock_fallbacks",
                           "critical_sections")}
    result = VerifyResult(
        workload=spec.workload,
        scheme=scheme_to_str(spec.config.scheme),
        num_cpus=spec.config.num_cpus,
        seed=spec.config.seed,
        ok=error is None and not violations,
        error=error,
        violations=violations,
        num_txns=report.num_txns,
        edges=report.edges,
        elapsed=time.perf_counter() - started,
        cycles=stats_image.get("total_cycles", 0) or machine.sim.now,
        summary=summary,
        metrics=(collector.finalize(machine)
                 if collector is not None else None))
    if flight is not None:
        from repro.harness.runner import RunResult, result_fingerprint
        run_fingerprint = result_fingerprint(RunResult(
            config=spec.config, workload_name=workload.name,
            stats=machine.stats, store=machine.store))
        result.log_bytes = flight.finish(run_fingerprint)
    return result


def verify_fingerprint(spec: RunSpec) -> str:
    """Cache key for one verification verdict: the run fingerprint plus
    the verifier's own version."""
    payload = {"v": VERIFY_FINGERPRINT_VERSION, "run": spec.fingerprint()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "verify-" + hashlib.sha256(
        canonical.encode("utf-8")).hexdigest()


def _verify_one(spec: RunSpec, timeout: Optional[float]) -> VerifyResult:
    """One verdict.  Failures are findings: a run that dies or times
    out becomes a failing verdict."""
    started = time.perf_counter()
    try:
        result = verify_run(spec, timeout=timeout)
    except Exception as exc:  # timeout or an unexpected verifier crash
        result = VerifyResult(
            workload=spec.workload,
            scheme=scheme_to_str(spec.config.scheme),
            num_cpus=spec.config.num_cpus,
            seed=spec.config.seed,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            elapsed=time.perf_counter() - started)
    return result


def _verify_worker(payload: tuple) -> dict:
    """Pool entry point for verified cells of
    :func:`repro.harness.parallel.execute` (must be picklable)."""
    spec_dict, timeout = payload
    result = _verify_one(RunSpec.from_dict(spec_dict), timeout)
    timed_out = (result.error or "").startswith(RunTimeout.__name__ + ":")
    return {"outcome": result.to_dict(), "timed_out": timed_out,
            "elapsed": result.elapsed}


# ----------------------------------------------------------------------
# Seed fan-out
# ----------------------------------------------------------------------
@dataclass
class ExplorationResult:
    """Outcome of one seed fan-out."""

    spec: RunSpec                     # the base (seed-0) spec
    results: list[VerifyResult]
    cache_hits: int = 0
    wall_seconds: float = 0.0

    @property
    def failures(self) -> list[VerifyResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_txns(self) -> int:
        return sum(r.num_txns for r in self.results)

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} seeds)"
        return (f"{self.spec.workload}/{scheme_to_str(self.spec.config.scheme)}"
                f" cpus={self.spec.config.num_cpus}: {status} -- "
                f"{len(self.results)} seeds, {self.total_txns} txns "
                f"verified, {self.cache_hits} cached, "
                f"{self.wall_seconds:.1f}s")


def explore(spec: RunSpec, *, seeds: int = 100, base_seed: int = 0,
            jobs: int = 1, timeout: Optional[float] = None,
            cache=None, progress=None) -> ExplorationResult:
    """Verify ``spec`` under ``seeds`` different seeds.

    ``progress(done, total, result)`` fires as verdicts land.  Verdicts
    are cached under :func:`verify_fingerprint`, so re-running an
    exploration only simulates seeds that were not seen before.
    """
    specs = [spec.with_seed(base_seed + i) for i in range(seeds)]
    results, telemetry = execute(specs, jobs=jobs, timeout=timeout,
                                 cache=cache, progress=progress,
                                 verified=True)
    return ExplorationResult(spec=spec, results=results,
                             cache_hits=telemetry.cache_hits,
                             wall_seconds=telemetry.wall_seconds)


# ----------------------------------------------------------------------
# Failure shrinking
# ----------------------------------------------------------------------
@dataclass
class ShrunkFailure:
    """A minimal reproduction of one failing seed."""

    spec: RunSpec
    result: VerifyResult
    trace: str
    shrink_steps: int = 0

    def render(self) -> str:
        config = self.spec.config
        size_key = SIZE_PARAM.get(self.spec.workload)
        size = self.spec.workload_args.get(size_key, "?") if size_key else "?"
        header = (f"minimal reproduction after {self.shrink_steps} shrink "
                  f"steps: {self.spec.workload} {size_key}={size} "
                  f"cpus={config.num_cpus} seed={config.seed} "
                  f"chaos={config.schedule_chaos}")
        problem = self.result.error or (
            self.result.violations[0] if self.result.violations else "?")
        lines = [header, f"failure: {problem}"]
        if self.result.record_log:
            lines.append(f"record log: {self.result.record_log} "
                         f"(replay with `repro replay`)")
        lines += ["", self.trace]
        return "\n".join(lines)


def shrink_failure(spec: RunSpec, *,
                   timeout: Optional[float] = None,
                   max_rounds: int = 16) -> ShrunkFailure:
    """Shrink a failing spec to a minimal reproduction.

    Greedily halves the workload's size knob while the failure still
    reproduces, then halves the processor count (floor 2), then re-runs
    the survivor with a record log captured and renders the log's
    window around the first violation.
    """
    current = spec
    steps = 0
    size_key = SIZE_PARAM.get(spec.workload)

    def try_shrunk(candidate: RunSpec) -> bool:
        # Shrinking must preserve the failure.
        nonlocal current, steps
        if not _verify_one(candidate, timeout).ok:
            current = candidate
            steps += 1
            return True
        return False

    if size_key is not None and size_key in spec.workload_args:
        for _ in range(max_rounds):
            size = current.workload_args[size_key]
            if size <= 2:
                break
            smaller = dict(current.workload_args)
            smaller[size_key] = max(2, size // 2)
            if not try_shrunk(replace(current, workload_args=smaller)):
                break
    for _ in range(max_rounds):
        cpus = current.config.num_cpus
        if cpus <= 2:
            break
        fewer = replace(current,
                        config=replace(current.config,
                                       num_cpus=max(2, cpus // 2)))
        if not try_shrunk(fewer):
            break

    # Final instrumented run of the minimal reproduction, with a
    # record log captured so the exact failing schedule can be
    # replayed and time-travel-debugged offline.
    result = verify_run(current, record=True)
    if result.ok:
        # The failure is flaky at this size (e.g. pool-vs-serial timing
        # of the wall clock); fall back to the unshrunk spec.
        current, steps = spec, 0
        result = verify_run(current, record=True)
    from repro.record import artifact_dir, load_log
    log_path = os.path.join(
        artifact_dir(),
        f"record-{current.workload}-s{current.config.seed}.rlog")
    with open(log_path, "wb") as fh:
        fh.write(result.log_bytes)
    result.record_log = log_path
    records = load_log(result.log_bytes).records
    first_violation = _first_violation_time(result)
    if first_violation is not None:
        since = first_violation - TRACE_WINDOW_BEFORE
        until = first_violation + TRACE_WINDOW_AFTER
        window = [record for record in records
                  if record.op != "dispatch"
                  and since <= record.time <= until]
    else:
        window = [record for record in records
                  if record.op == "tap"][-TRACE_TAIL_TAPS:]
    trace = "\n".join(record.render() for record in window)
    return ShrunkFailure(spec=current, result=result, trace=trace,
                         shrink_steps=steps)


def _first_violation_time(result: VerifyResult) -> Optional[int]:
    """Pull the earliest ``t=N`` annotation out of the verdict's
    violation strings (both monitor and oracle violations carry one)."""
    times = []
    for text in result.violations:
        for token in text.replace("]", " ").split():
            if token.startswith("t=") and token[2:].isdigit():
                times.append(int(token[2:]))
                break
    return min(times) if times else None


# ----------------------------------------------------------------------
# The full verification suite (three microbenchmarks by default)
# ----------------------------------------------------------------------
DEFAULT_VERIFY_WORKLOADS: Sequence[str] = (
    "single-counter", "multiple-counter", "linked-list")


@dataclass
class VerifySuiteResult:
    """Outcome of :func:`verify_suite` across several workloads."""

    explorations: dict[str, ExplorationResult]
    shrunk: Optional[ShrunkFailure] = None

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.explorations.values())

    def render(self) -> str:
        lines = [e.summary() for e in self.explorations.values()]
        if self.shrunk is not None:
            lines += ["", self.shrunk.render()]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return stamp_schema({
            "ok": self.ok,
            "workloads": {
                name: {"ok": e.ok,
                       "seeds": len(e.results),
                       "failures": [r.to_dict() for r in e.failures],
                       "total_txns": e.total_txns,
                       "cache_hits": e.cache_hits,
                       "wall_seconds": e.wall_seconds}
                for name, e in self.explorations.items()},
            "shrunk": None if self.shrunk is None else {
                "spec": self.shrunk.spec.to_dict(),
                "result": self.shrunk.result.to_dict(),
                "trace": self.shrunk.trace,
                "shrink_steps": self.shrunk.shrink_steps},
        })


def verify_suite(workloads: Sequence[str] = DEFAULT_VERIFY_WORKLOADS, *,
                 scheme=None, num_cpus: int = 4, seeds: int = 100,
                 ops: int = 96, chaos: int = 0, base_seed: int = 0,
                 jobs: int = 1, timeout: Optional[float] = None,
                 cache=None, shrink: bool = True, progress=None,
                 policy: Optional[str] = None) -> VerifySuiteResult:
    """Explore every workload; shrink the first failing seed found.

    ``policy`` selects a contention policy by name (see
    :data:`repro.policies.POLICY_NAMES`); None keeps the config default
    (the paper's timestamp deferral).
    """
    from repro.harness.config import SyncScheme, SystemConfig

    scheme = scheme or SyncScheme.TLR
    explorations: dict[str, ExplorationResult] = {}
    shrunk: Optional[ShrunkFailure] = None
    for name in workloads:
        config = SystemConfig(num_cpus=num_cpus, scheme=scheme,
                              schedule_chaos=chaos)
        if policy is not None:
            config = config.with_policy(policy)
        size_key = SIZE_PARAM[name]
        spec = RunSpec(workload=name, config=config,
                       workload_args={size_key: ops})
        exploration = explore(spec, seeds=seeds, base_seed=base_seed,
                              jobs=jobs, timeout=timeout, cache=cache,
                              progress=progress)
        explorations[name] = exploration
        if shrunk is None and shrink and exploration.failures:
            failing = exploration.failures[0]
            shrunk = shrink_failure(spec.with_seed(failing.seed),
                                    timeout=timeout)
    return VerifySuiteResult(explorations=explorations, shrunk=shrunk)
