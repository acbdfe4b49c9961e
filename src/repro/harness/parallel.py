"""Parallel sweep engine and the unified ``run`` API.

Every paper figure is a sweep of *independent* ``(workload, scheme,
num_cpus, seed)`` simulations, so :func:`execute` fans a list of
:class:`~repro.harness.spec.RunSpec` out over a ``multiprocessing``
pool.  Guarantees:

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
  they indicate a correctness bug and abort loudly.
* **Incrementality** -- with a :class:`~repro.harness.cache.ResultCache`,
  runs whose fingerprint already has a stored result are reconstructed
  from disk instead of simulated.
* **Telemetry** -- :class:`SweepTelemetry` reports runs simulated,
  cache hits, retries, failures, wall time and worker utilization;
  :func:`repro.harness.report.telemetry_line` renders it.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence, Union

from repro.harness.cache import resolve_cache
from repro.harness.config import SystemConfig
from repro.harness.runner import RunResult, execute_workload
from repro.harness.spec import (ExperimentSpec, RunSpec, check_schema,
                                get_experiment, scheme_to_str,
                                stamp_schema)
from repro.runtime.program import Workload
from repro.sim.kernel import SimulationError

DEFAULT_RETRIES = 2
#: Seed increment per retry.  Large and odd, so retry seeds stay far
#: from the dense 0..N seed ranges sweeps normally use.
SEED_BUMP = 1_000_003


class RunTimeout(SimulationError):
    """A run exceeded its per-run wall-clock budget."""


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


@dataclass
class SweepTelemetry:
    """What one :func:`execute` call did, for progress reporting."""

    total_runs: int = 0
    simulated: int = 0
    cache_hits: int = 0
    retries: int = 0
    failures: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0   # sum of per-run simulation wall time

    @property
    def utilization(self) -> float:
        """Fraction of worker capacity spent simulating."""
        if self.wall_seconds <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.jobs * self.wall_seconds))

    def to_dict(self) -> dict:
        return {"total_runs": self.total_runs, "simulated": self.simulated,
                "cache_hits": self.cache_hits, "retries": self.retries,
                "failures": self.failures, "jobs": self.jobs,
                "wall_seconds": self.wall_seconds,
                "busy_seconds": self.busy_seconds,
                "utilization": self.utilization}


# ----------------------------------------------------------------------
# Per-run execution (shared by the serial path and pool workers)
# ----------------------------------------------------------------------
@contextmanager
def _wall_clock_limit(seconds: Optional[float]):
    """Raise :class:`RunTimeout` if the body runs longer than
    ``seconds``.  Uses ``SIGALRM``, so it only engages on POSIX in the
    process's main thread (true for pool workers under fork and for the
    serial path); elsewhere the limit is a no-op."""
    if (not seconds or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"wall-clock limit of {seconds}s exceeded")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _simulate(spec: RunSpec) -> RunResult:
    """Build and run one spec (fresh workload, fresh machine)."""
    return execute_workload(spec.build_workload(), spec.config,
                            validate=spec.validate)


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
    started = time.perf_counter()
    for attempt in range(retries + 1):
        seed = base_seed + attempt * seed_bump
        seeds_tried.append(seed)
        attempt_spec = spec.with_seed(seed)
        try:
            with _wall_clock_limit(timeout):
                result = _simulate(attempt_spec)
        except SimulationError as exc:
            # Cycle-budget overrun (livelock), drained-queue deadlock,
            # or wall-clock timeout: retry under a different seed.
            last_error = exc
            continue
        return {"ok": True,
                "result": result.to_dict(),
                "attempts": attempt + 1,
                "seed_used": seed,
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
    return {"ok": False,
            "failed": failed.to_dict(),
            "attempts": len(seeds_tried),
            "elapsed": time.perf_counter() - started}


def _worker_execute(payload: tuple) -> dict:
    """Top-level pool entry point (must be picklable)."""
    spec_dict, timeout, retries, seed_bump = payload
    return _execute_with_retries(spec_dict, timeout, retries, seed_bump)


# ----------------------------------------------------------------------
# The sweep engine
# ----------------------------------------------------------------------
Outcome = Union[RunResult, FailedRun]
ProgressCallback = Callable[[int, int, Outcome], None]


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


class WorkerPool:
    """A persistent multiprocessing pool reusable across engine calls.

    The sweep engine normally forks a fresh pool per :func:`execute`
    call, which is fine for one-shot sweeps but wasteful for an
    always-on service running many jobs.  A ``WorkerPool`` keeps the
    worker processes alive; install it for a region of code with
    :func:`use_engine` and every engine call inside (including those
    made by experiment functions and the verifier) shards its cells
    across the shared workers.  ``Pool.imap`` is safe to call from
    several service threads concurrently -- each call gets its own
    result iterator.
    """

    def __init__(self, processes: Optional[int] = None):
        self.processes = processes or multiprocessing.cpu_count()
        self._pool = _pool_context().Pool(processes=self.processes)

    def imap(self, fn, iterable):
        return self._pool.imap(fn, iterable)

    def close(self) -> None:
        self._pool.terminate()
        self._pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _EngineContext(threading.local):
    """Per-thread ambient engine state (persistent pool, progress tap).

    Thread-local so concurrent service threads can run jobs with
    independent progress hooks while sharing one :class:`WorkerPool`
    object (each thread installs the same pool into its own context).
    """

    pool: Optional[WorkerPool] = None
    progress: Optional["ProgressCallback"] = None


_ENGINE = _EngineContext()


@contextmanager
def use_engine(pool: Optional[WorkerPool] = None, progress=None):
    """Install a persistent :class:`WorkerPool` and/or a progress tap
    for every engine call made inside the ``with`` body (including
    calls buried in experiment functions and the verifier, which do not
    take these arguments directly)."""
    previous = (_ENGINE.pool, _ENGINE.progress)
    _ENGINE.pool = pool if pool is not None else _ENGINE.pool
    _ENGINE.progress = progress if progress is not None else _ENGINE.progress
    try:
        yield
    finally:
        _ENGINE.pool, _ENGINE.progress = previous


def ambient_progress():
    """The progress tap installed by :func:`use_engine`, if any."""
    return _ENGINE.progress


def map_payloads(worker, payloads: Sequence, jobs: int):
    """Yield ``worker(payload)`` for each payload, in order.

    Serial in-process when ``jobs <= 1`` or there is a single payload
    (the determinism baseline); otherwise through the ambient
    :class:`WorkerPool` if one is installed, else a fresh fork pool.
    Shared by the sweep engine and the verifier so both honour the
    service's persistent pool.
    """
    if jobs <= 1 or len(payloads) == 1:
        for payload in payloads:
            yield worker(payload)
        return
    if _ENGINE.pool is not None:
        yield from _ENGINE.pool.imap(worker, payloads)
        return
    ctx = _pool_context()
    with ctx.Pool(processes=min(jobs, len(payloads))) as pool:
        yield from pool.imap(worker, payloads)


def execute(specs: Sequence[RunSpec], *,
            jobs: Optional[int] = 1,
            timeout: Optional[float] = None,
            retries: Optional[int] = None,
            seed_bump: int = SEED_BUMP,
            cache=None,
            progress: Optional[ProgressCallback] = None,
            ) -> tuple[list[Outcome], SweepTelemetry]:
    """Execute ``specs``, returning outcomes in the same order.

    ``jobs``: worker processes (``None``/``0`` = one per CPU; ``1`` =
    serial in-process, the determinism baseline).  ``timeout``:
    per-run wall-clock seconds.  ``retries``: extra attempts (with
    seed bumps) before a run is recorded as :class:`FailedRun`.
    ``cache`` accepts anything :func:`~repro.harness.cache.resolve_cache`
    does.  ``progress(done, total, outcome)`` fires as results land.
    """
    if retries is None:
        retries = DEFAULT_RETRIES
    if not jobs:
        jobs = multiprocessing.cpu_count()
    store = resolve_cache(cache)
    started = time.perf_counter()
    telemetry = SweepTelemetry(total_runs=len(specs), jobs=jobs)
    outcomes: list[Optional[Outcome]] = [None] * len(specs)
    fingerprints = [spec.fingerprint() for spec in specs]
    done = 0
    taps = [tap for tap in (progress, ambient_progress()) if tap is not None]

    def _notify(count: int, total: int, outcome: Outcome) -> None:
        for tap in taps:
            tap(count, total, outcome)

    # Cache pass: reconstruct whatever is already on disk.
    pending: list[int] = []
    for i, spec in enumerate(specs):
        payload = store.get(fingerprints[i]) if store is not None else None
        if payload is not None:
            try:
                outcomes[i] = RunResult.from_dict(payload["result"])
            except (KeyError, TypeError, ValueError):
                # Stale schema: drop the entry and simulate.
                store.invalidate(fingerprints[i])
            else:
                telemetry.cache_hits += 1
                done += 1
                _notify(done, len(specs), outcomes[i])
                continue
        pending.append(i)

    def _absorb(index: int, raw: dict) -> None:
        nonlocal done
        telemetry.busy_seconds += raw.get("elapsed", 0.0)
        telemetry.retries += raw["attempts"] - 1
        if raw["ok"]:
            # The retry metadata rides in the cached payload, so a
            # replay shows a seed substitution just as the fresh run does.
            raw["result"]["attempts"] = raw["attempts"]
            raw["result"]["seed_used"] = raw["seed_used"]
            outcomes[index] = RunResult.from_dict(raw["result"])
            telemetry.simulated += 1
            if store is not None:
                store.put(fingerprints[index],
                          {"spec": spec_dicts[index],
                           "result": raw["result"]})
        else:
            outcomes[index] = FailedRun.from_dict(raw["failed"])
            telemetry.failures += 1
        done += 1
        _notify(done, len(specs), outcomes[index])

    # One image per pending spec: the worker payload and the cache
    # entry share it (nothing on either side mutates it).
    spec_dicts = {i: specs[i].to_dict() for i in pending}
    payloads = [(spec_dicts[i], timeout, retries, seed_bump)
                for i in pending]
    for index, raw in zip(pending,
                          map_payloads(_worker_execute, payloads, jobs)):
        _absorb(index, raw)

    telemetry.wall_seconds = time.perf_counter() - started
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
    * a registered experiment name (``"figure9"``, ``"coarse-vs-fine"``,
      ...) or :class:`~repro.harness.spec.ExperimentSpec` -- the full
      figure/table sweep; extra ``**params`` (e.g. ``processor_counts``)
      are forwarded to the experiment; returns its result object;
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
        spec = get_experiment(spec)
    if isinstance(spec, ExperimentSpec):
        if config is not None:
            params.setdefault("config", config)
        return spec.runner(jobs=jobs, timeout=timeout, cache=cache,
                           validate=validate, retries=retries, **params)
    raise TypeError(
        f"cannot run {type(spec).__name__!r}: expected RunSpec, Workload, "
        "ExperimentSpec, or a registered experiment name")
