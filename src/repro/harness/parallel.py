"""Parallel sweep engine and the unified ``run`` API.

Every paper figure is a sweep of *independent* ``(workload, scheme,
num_cpus, seed)`` simulations, so :func:`execute` fans a list of
:class:`~repro.harness.spec.RunSpec` out over a process pool
(:func:`process_pool`).  Guarantees:

* **Determinism** -- each run builds a fresh machine seeded only from
  its own config, and the serial (``jobs=1``) and parallel paths share
  the same per-run execution function, so results are bit-identical for
  the same specs regardless of ``jobs``.
* **Graceful degradation** -- a run that livelocks
  (:class:`~repro.sim.kernel.SimulationError` on cycle-budget overrun),
  deadlocks, or exceeds its wall-clock ``timeout`` is retried with a
  bumped seed; a configuration that stays pathological after
  ``retries`` attempts yields a structured :class:`FailedRun` in its
  slot instead of aborting the sweep.  Functional-validation failures
  (:class:`~repro.runtime.program.ValidationError`) are *not* retried:
  they indicate a correctness bug and abort loudly.  The timeout is a
  deadline the kernel's run loop checks
  (:class:`~repro.sim.kernel.RunTimeout`), so it holds in any thread,
  a ``repro serve`` worker thread included.
* **No hangs** -- a worker process that dies (killed, out of memory)
  raises ``BrokenProcessPool`` out of :func:`execute` instead of
  leaving the sweep waiting for its result.  With a cache, the cells
  that landed before it are stored, so re-running the sweep simulates
  only the rest.
* **Verified cells** -- with ``verified=True`` the same loop runs
  every spec under the verifier (:mod:`repro.verify`: recorder,
  oracle, monitors, in their one fixed configuration).  Its outcome
  is a ``VerifyResult`` cached under the verification fingerprint; a
  crash or timeout is a failing verdict, never retried.
* **Incrementality** -- with a :class:`~repro.harness.cache.ResultCache`,
  cells whose cache key already has a stored outcome are reconstructed
  from disk instead of simulated.  A cell that hit the timeout (in any
  attempt) is not stored: the timeout is not part of its key.
* **Telemetry** -- :class:`SweepTelemetry` reports runs simulated,
  cache hits, retries, failures, wall time and worker utilization;
  :func:`repro.harness.report.telemetry_line` renders it.  Every call
  returns its own; :func:`use_engine` also collects the telemetry of
  the calls made inside it.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from repro.harness.cache import resolve_cache
from repro.harness.config import SystemConfig
from repro.harness.runner import RunResult, execute_workload
from repro.harness.spec import (RunSpec, check_schema, scheme_to_str,
                                stamp_schema)
from repro.runtime.program import Workload
from repro.sim.kernel import RunTimeout, SimulationError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.verify.explorer import VerifyResult

DEFAULT_RETRIES = 2
#: Seed increment per retry.  Large and odd, so retry seeds stay far
#: from the dense 0..N seed ranges sweeps normally use.
SEED_BUMP = 1_000_003


@dataclass
class FailedRun:
    """One configuration that stayed pathological through its retries."""

    workload: str
    scheme: str                 # scheme name, e.g. "TLR"
    num_cpus: int
    seed: int                   # the originally requested seed
    fingerprint: str
    error: str                  # last exception class name
    message: str                # last exception message
    attempts: int
    seeds_tried: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return stamp_schema(
            {"workload": self.workload, "scheme": self.scheme,
             "num_cpus": self.num_cpus, "seed": self.seed,
             "fingerprint": self.fingerprint, "error": self.error,
             "message": self.message, "attempts": self.attempts,
             "seeds_tried": list(self.seeds_tried)})

    @classmethod
    def from_dict(cls, data: dict) -> "FailedRun":
        check_schema(data, "FailedRun")
        fields_ = {key: value for key, value in data.items()
                   if key != "schema"}
        return cls(**fields_)

    @property
    def ok(self) -> bool:
        """Always false (see :attr:`RunResult.ok`)."""
        return False


@dataclass
class SweepTelemetry:
    """What one :func:`execute` call did, for progress reporting."""

    total_runs: int = 0
    simulated: int = 0
    cache_hits: int = 0
    retries: int = 0
    failures: int = 0
    timeouts: int = 0           # cells that hit the wall-clock timeout
    jobs: int = 1
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0   # sum of per-run simulation wall time

    @property
    def utilization(self) -> float:
        """Fraction of worker capacity spent simulating."""
        if self.wall_seconds <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.jobs * self.wall_seconds))

    @classmethod
    def total(cls, calls: Sequence["SweepTelemetry"]) -> "SweepTelemetry":
        """Several engine calls taken together: counts and seconds add
        up, ``jobs`` is the widest call's."""
        summed = cls(**{f.name: sum(getattr(t, f.name) for t in calls)
                        for f in fields(cls)})
        summed.jobs = max((t.jobs for t in calls), default=1)
        return summed

    def to_dict(self) -> dict:
        return {"total_runs": self.total_runs, "simulated": self.simulated,
                "cache_hits": self.cache_hits, "retries": self.retries,
                "failures": self.failures, "timeouts": self.timeouts,
                "jobs": self.jobs,
                "wall_seconds": self.wall_seconds,
                "busy_seconds": self.busy_seconds,
                "utilization": self.utilization}


# ----------------------------------------------------------------------
# Per-run execution (shared by the serial path and pool workers)
# ----------------------------------------------------------------------
def _simulate(spec: RunSpec, timeout: Optional[float]) -> RunResult:
    """Build and run one spec (fresh workload, fresh machine)."""
    return execute_workload(spec.build_workload(), spec.config,
                            validate=spec.validate, timeout=timeout)


def _execute_with_retries(spec_dict: dict, timeout: Optional[float],
                          retries: int, seed_bump: int) -> dict:
    """Run one spec, retrying livelock/timeout with bumped seeds.

    Takes and returns plain dicts so it can cross the process boundary
    unchanged; the serial path calls it in-process, which is what makes
    ``jobs=1`` and ``jobs=N`` bit-identical.
    """
    spec = RunSpec.from_dict(spec_dict)
    base_seed = spec.config.seed
    seeds_tried: list[int] = []
    last_error: Optional[BaseException] = None
    timed_out = False
    started = time.perf_counter()
    for attempt in range(retries + 1):
        seed = base_seed + attempt * seed_bump
        seeds_tried.append(seed)
        try:
            result = _simulate(spec.with_seed(seed), timeout)
        except SimulationError as exc:
            # Cycle-budget overrun (livelock), drained-queue deadlock,
            # or wall-clock timeout: retry under a different seed.
            last_error = exc
            timed_out = timed_out or isinstance(exc, RunTimeout)
            continue
        # The retry metadata rides in the cached payload, so a replay
        # shows a seed substitution just as the fresh run does.
        result.attempts = attempt + 1
        result.seed_used = seed
        return {"result": result.to_dict(),
                "attempts": attempt + 1, "timed_out": timed_out,
                "elapsed": time.perf_counter() - started}
    failed = FailedRun(
        workload=spec.workload,
        scheme=scheme_to_str(spec.config.scheme),
        num_cpus=spec.config.num_cpus,
        seed=base_seed,
        fingerprint=spec.fingerprint(),
        error=type(last_error).__name__,
        message=str(last_error),
        attempts=len(seeds_tried),
        seeds_tried=seeds_tried)
    return {"failed": failed.to_dict(),
            "attempts": len(seeds_tried), "timed_out": timed_out,
            "elapsed": time.perf_counter() - started}


def _worker_execute(payload: tuple) -> dict:
    """Top-level pool entry point (must be picklable)."""
    return _execute_with_retries(*payload)


# ----------------------------------------------------------------------
# The sweep engine
# ----------------------------------------------------------------------
Outcome = Union[RunResult, FailedRun, "VerifyResult"]
ProgressCallback = Callable[[int, int, Outcome], None]


def process_pool(workers: int, *,
                 persistent: bool = False) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes, and the one place a start
    method is chosen.  A per-call pool forks: its callers (the CLI,
    ``bench/``, tests, ``repro serve --regen``) are single-threaded.  A
    persistent pool lives in ``repro serve``, a multi-threaded process
    where a fork can copy a lock another thread holds (an import lock,
    say) into the child, so it uses ``forkserver``.  Those workers
    re-import the main script: a script that builds a ``JobQueue`` with
    ``jobs > 1`` needs an ``if __name__ == "__main__":`` guard.
    """
    # Lazy: a process that never starts a pool never loads its modules.
    from concurrent.futures import ProcessPoolExecutor
    method = "forkserver" if persistent else "fork"
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context(method),
                               initializer=_exit_with_parent)


def _exit_with_parent() -> None:
    """Pool worker initializer: end the worker when the process that
    made the pool dies without shutting it down (SIGKILL, a ``kill``).
    An idle ``concurrent.futures`` worker would wait for work forever."""
    from multiprocessing.connection import wait
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class _EngineContext(threading.local):
    """Per-thread ambient engine state (persistent pool, progress tap,
    the telemetry of the calls made so far).

    Thread-local so concurrent service threads can run jobs with
    independent progress hooks and telemetry while sharing one
    persistent pool (each thread installs the same pool into its own
    context; ``submit`` and ``map`` are thread-safe).
    """

    pool: Optional[ProcessPoolExecutor] = None
    progress: Optional["ProgressCallback"] = None
    calls: Optional[list[SweepTelemetry]] = None


_ENGINE = _EngineContext()


@contextmanager
def use_engine(pool: Optional[ProcessPoolExecutor] = None, progress=None):
    """Install a persistent pool (see :func:`process_pool`) and/or a
    progress tap for every engine call made inside the ``with`` body
    (including calls buried in experiment functions, which do not take
    these arguments directly).  Yields the list that collects the
    :class:`SweepTelemetry` of each of those calls."""
    previous = (_ENGINE.pool, _ENGINE.progress, _ENGINE.calls)
    calls: list[SweepTelemetry] = []
    _ENGINE.pool = pool if pool is not None else _ENGINE.pool
    _ENGINE.progress = progress if progress is not None else _ENGINE.progress
    _ENGINE.calls = calls
    try:
        yield calls
    finally:
        _ENGINE.pool, _ENGINE.progress, _ENGINE.calls = previous


def map_payloads(worker, payloads: Sequence, jobs: int):
    """Yield ``worker(payload)`` for each payload, in order.

    Serial in-process when ``jobs <= 1`` or there is a single payload
    (the determinism baseline); otherwise through the pool
    :func:`use_engine` installed, else a per-call one.  A worker that
    dies raises ``BrokenProcessPool`` here instead of leaving its
    result to wait forever.
    """
    if jobs <= 1 or len(payloads) == 1:
        yield from map(worker, payloads)
    elif _ENGINE.pool is not None:
        yield from _ENGINE.pool.map(worker, payloads)
    else:
        with process_pool(min(jobs, len(payloads))) as pool:
            yield from pool.map(worker, payloads)


def cell_key(spec: RunSpec, verified: bool = False) -> str:
    """The cache key a cell's outcome is stored under: the run
    fingerprint, or the verification fingerprint of a verified cell."""
    if not verified:
        return spec.fingerprint()
    from repro.verify.explorer import verify_fingerprint
    return verify_fingerprint(spec)


def execute(specs: Sequence[RunSpec], *,
            jobs: Optional[int] = 1,
            timeout: Optional[float] = None,
            retries: Optional[int] = None,
            seed_bump: int = SEED_BUMP,
            cache=None,
            progress: Optional[ProgressCallback] = None,
            verified: bool = False,
            ) -> tuple[list[Outcome], SweepTelemetry]:
    """Execute ``specs``, returning outcomes in the same order.

    ``jobs``: worker processes (``None``/``0`` = one per CPU; ``1`` =
    serial in-process, the determinism baseline).  ``timeout``:
    per-run wall-clock seconds.  ``retries``: extra attempts (with
    seed bumps) before a run is recorded as :class:`FailedRun`.
    ``cache`` accepts anything :func:`~repro.harness.cache.resolve_cache`
    does.  ``progress(done, total, outcome)`` fires as results land.

    ``verified`` runs every spec under the verifier: outcomes are
    ``VerifyResult`` verdicts, ``retries`` does not apply, and
    ``failures`` counts the verdicts that are not ok.
    """
    if retries is None:
        retries = DEFAULT_RETRIES
    if not jobs:
        jobs = multiprocessing.cpu_count()
    if not verified:
        entry_field, decode = "result", RunResult.from_dict
        worker, worker_args = _worker_execute, (timeout, retries, seed_bump)
    else:
        # Lazy: repro.verify imports this module.
        from repro.verify.explorer import VerifyResult, _verify_worker
        entry_field, decode = "verdict", VerifyResult.from_dict
        worker, worker_args = _verify_worker, (timeout,)
    store = resolve_cache(cache)
    started = time.perf_counter()
    telemetry = SweepTelemetry(total_runs=len(specs), jobs=jobs)
    outcomes: list[Optional[Outcome]] = [None] * len(specs)
    keys = [cell_key(spec, verified) for spec in specs]
    done = 0
    taps = [tap for tap in (progress, _ENGINE.progress) if tap is not None]

    def _land(index: int, outcome: Outcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        if not outcome.ok:
            telemetry.failures += 1
        done += 1
        for tap in taps:
            tap(done, len(specs), outcome)

    # Cache pass: reconstruct whatever is already on disk.
    pending: list[int] = []
    for i in range(len(specs)):
        payload = store.get(keys[i]) if store is not None else None
        if payload is not None:
            try:
                outcome = decode(payload[entry_field])
            except (KeyError, TypeError, ValueError):
                # Stale schema: drop the entry and simulate.
                store.invalidate(keys[i])
            else:
                telemetry.cache_hits += 1
                _land(i, outcome)
                continue
        pending.append(i)

    def _absorb(index: int, raw: dict) -> None:
        telemetry.busy_seconds += raw["elapsed"]
        telemetry.retries += raw["attempts"] - 1
        telemetry.timeouts += raw["timed_out"]
        if "failed" in raw:
            outcome = FailedRun.from_dict(raw["failed"])
        else:
            image = raw[entry_field]
            outcome = decode(image)
            telemetry.simulated += 1
            # A timed-out outcome depends on the timeout, which is not
            # part of the cache key: never store one.
            if store is not None and not raw["timed_out"]:
                store.put(keys[index],
                          {"spec": spec_dicts[index], entry_field: image})
        _land(index, outcome)

    # One image per pending spec: the worker payload and the cache
    # entry share it (nothing on either side mutates it).
    spec_dicts = {i: specs[i].to_dict() for i in pending}
    payloads = [(spec_dicts[i], *worker_args) for i in pending]
    for index, raw in zip(pending, map_payloads(worker, payloads, jobs)):
        _absorb(index, raw)

    telemetry.wall_seconds = time.perf_counter() - started
    if _ENGINE.calls is not None:
        _ENGINE.calls.append(telemetry)
    return list(outcomes), telemetry  # every slot is filled by now


# ----------------------------------------------------------------------
# The unified experiment API
# ----------------------------------------------------------------------
def run(spec, config: Optional[SystemConfig] = None, *,
        jobs: int = 1,
        timeout: Optional[float] = None,
        cache=None,
        validate: bool = True,
        retries: Optional[int] = None,
        **params) -> Any:
    """Run a spec -- the single entry point for every kind of work.

    ``spec`` may be:

    * a :class:`~repro.harness.spec.RunSpec` -- one simulation; returns
      a :class:`RunResult` (or a :class:`FailedRun` if it stayed
      pathological through its retries);
    * the name of an experiment in
      :data:`repro.harness.experiments.EXPERIMENTS` (``"figure9"``,
      ``"coarse-vs-fine"``, ...) -- the full figure/table sweep or
      grid; extra ``**params`` (e.g. ``processor_counts``) go to its
      planner; returns its result object;
    * a raw :class:`~repro.runtime.program.Workload` -- legacy
      single-run path (in-process, uncacheable: thread factories carry
      closures, so there is no stable fingerprint).

    Engine options are keyword-only: ``jobs`` (worker processes),
    ``timeout`` (per-run wall-clock seconds), ``cache`` (``True`` /
    path / :class:`~repro.harness.cache.ResultCache`), ``validate``
    (run the functional checker), ``retries`` (livelock retries).
    """
    if isinstance(spec, Workload):
        base = config or SystemConfig()
        return execute_workload(spec, base, validate=validate)
    if isinstance(spec, RunSpec):
        if not validate:
            spec = replace(spec, validate=False)
        outcomes, _ = execute([spec], jobs=jobs, timeout=timeout,
                              retries=retries, cache=cache)
        return outcomes[0]
    if isinstance(spec, str):
        # Lazy: repro.harness.experiments imports this module.
        from repro.harness.experiments import run_experiment
        if config is not None:
            params.setdefault("config", config)
        return run_experiment(spec, jobs=jobs, timeout=timeout, cache=cache,
                              validate=validate, retries=retries, **params)
    raise TypeError(
        f"cannot run {type(spec).__name__!r}: expected RunSpec, Workload, "
        "or a registered experiment name")
