"""Transport-agnostic job execution: ``submit(JobSpec) -> JobResult``.

This is the single choke point every front end routes work through.
The CLI subcommands (``repro run``/``figure9``/``verify``/``sched``) and
the HTTP service (``repro serve``) both build a
:class:`~repro.harness.spec.JobSpec` and call :func:`submit`; neither
has a private execution path, so a job behaves identically whether it
arrives over argv or over HTTP -- same fingerprints, same results, same
cache entries.

Two layers of caching apply:

* **cell level** -- the sweep engine's per-:class:`RunSpec` result
  cache (unchanged); a re-submitted sweep whose grid overlaps an
  earlier one reuses the overlapping cells.
* **job level** -- a *completed* job's full :class:`JobResult` is
  stored under ``job-<fingerprint>``, unless a cell hit the wall-clock
  timeout; an identical later submission is replayed from disk without
  touching the engine at all (zero simulations, zero cell-cache reads).
  Every job kind is deterministic, so every stored job is replayable.

A layer up, :class:`repro.serve.queue.JobQueue` dedups in memory with
the service's notion of job identity, which this module deliberately
knows nothing about: two concurrent submissions of the same fingerprint
share one execution (in-flight coalescing), and a submission of a
fingerprint whose finished job the queue still keeps -- a job this
function stored -- replays that job's result without calling
:func:`submit` at all.  Everything else, the CLI included, replays from
disk here.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.harness import parallel
from repro.harness.cache import resolve_cache
from repro.harness.experiments import run_experiment
from repro.harness.spec import (JobSpec, check_schema, config_from_dict,
                                scheme_from_str, stamp_schema)

#: Job-level cache entries share the run cache's directory but are
#: namespaced so a job fingerprint can never collide with a cell
#: fingerprint.
JOB_CACHE_PREFIX = "job-"


@dataclass
class JobResult:
    """What one submitted job produced, as transportable data.

    ``result`` is the kind-specific payload, already serialized
    (``RunResult``/``SweepResult``/... ``to_dict()`` images, or plain
    dicts for the table experiments); ``telemetry`` is the engine
    telemetry of the execution that produced it, summed over its engine
    calls -- absent on a replay, where nothing executed.
    """

    kind: str
    fingerprint: str
    result: Any
    telemetry: Optional[dict] = None
    cached: bool = False
    elapsed: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return stamp_schema({
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "result": self.result,
            "telemetry": self.telemetry,
            "cached": self.cached,
            "elapsed": self.elapsed,
            "extra": dict(self.extra),
        })

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        check_schema(data, "JobResult")
        return cls(kind=data["kind"],
                   fingerprint=data["fingerprint"],
                   result=data.get("result"),
                   telemetry=data.get("telemetry"),
                   cached=data.get("cached", False),
                   elapsed=data.get("elapsed", 0.0),
                   extra=dict(data.get("extra") or {}))


def serialize_result(obj: Any) -> Any:
    """Recursively convert an experiment's return value to plain data.

    Experiments return heterogeneous types -- ``SweepResult``,
    ``PolicyGridResult``, ``dict[str, AppResult]``, plain dicts of
    scalars -- so serialization walks: anything with ``to_dict`` uses
    it, dicts recurse, everything else passes through.
    """
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if isinstance(obj, dict):
        return {key: serialize_result(value) for key, value in obj.items()}
    return obj


def _decode_params(params: dict) -> dict:
    """Rehydrate wire-form parameters into the types experiment
    functions expect: ``config`` dicts become :class:`SystemConfig`,
    ``scheme`` strings become :class:`SyncScheme`."""
    decoded = dict(params)
    if isinstance(decoded.get("config"), dict):
        decoded["config"] = config_from_dict(decoded["config"])
    if isinstance(decoded.get("scheme"), str):
        decoded["scheme"] = scheme_from_str(decoded["scheme"])
    return decoded


def _execute_job(spec: JobSpec, *, jobs: int, timeout: Optional[float],
                 cache) -> Any:
    """Dispatch one job by kind; returns its serialized payload."""
    if spec.kind == "run":
        outcomes, _ = parallel.execute(
            [spec.run_spec()], jobs=jobs, timeout=timeout, cache=cache)
        outcome = outcomes[0]
        return {"ok": outcome.ok, "outcome": outcome.to_dict()}
    params = _decode_params(spec.params)
    if spec.kind == "sweep":
        value = run_experiment(params.pop("experiment"), **params, jobs=jobs,
                               timeout=timeout, cache=cache)
    else:
        # Imported lazily: repro.verify imports harness modules.
        from repro.verify import DEFAULT_VERIFY_WORKLOADS, verify_suite
        workloads = params.pop("workloads", None) or DEFAULT_VERIFY_WORKLOADS
        value = verify_suite(tuple(workloads), **params, jobs=jobs,
                             timeout=timeout, cache=cache)
    return serialize_result(value)


def collect_artifacts(payload: Any) -> dict[str, str]:
    """Walk a serialized job payload for on-disk artifacts it names
    (currently ``record_log`` paths from repro.record auto-capture) and
    return ``{basename: path}`` for the ones that exist.  The registry
    lands in :attr:`JobResult.extra` so the HTTP service can expose
    them as downloadable job artifacts."""
    found: dict[str, str] = {}

    def walk(node: Any) -> None:
        if isinstance(node, dict):
            path = node.get("record_log")
            if isinstance(path, str) and os.path.isfile(path):
                found[os.path.basename(path)] = path
            for value in node.values():
                walk(value)
        elif isinstance(node, (list, tuple)):
            for value in node:
                walk(value)

    walk(payload)
    return found


def submit(spec: JobSpec, *, jobs: int = 1,
           timeout: Optional[float] = None,
           cache=None,
           pool=None,
           progress=None) -> JobResult:
    """Execute (or replay) one job.

    ``jobs``/``timeout``/``cache`` are the uniform engine
    keywords (see :func:`repro.harness.parallel.execute`).  ``pool``
    installs a persistent process pool
    (:func:`~repro.harness.parallel.process_pool`) and ``progress`` a
    per-cell tap for every engine call the job makes
    (via :func:`~repro.harness.parallel.use_engine`), however deeply
    buried in experiment code; the same context collects those calls'
    telemetry, so concurrent jobs never see each other's.
    """
    store = resolve_cache(cache)
    fingerprint = spec.fingerprint()
    if store is not None:
        payload = store.get(JOB_CACHE_PREFIX + fingerprint)
        if payload is not None:
            try:
                replay = JobResult.from_dict(payload)
            except (KeyError, TypeError, ValueError):
                store.invalidate(JOB_CACHE_PREFIX + fingerprint)
            else:
                replay.cached = True
                replay.telemetry = None  # nothing executed this time
                store.persist_counters()
                return replay
    started = time.perf_counter()
    with parallel.use_engine(pool=pool, progress=progress) as calls:
        payload = _execute_job(
            spec, jobs=jobs, timeout=timeout, cache=store)
    telemetry = (parallel.SweepTelemetry.total(calls).to_dict()
                 if calls else None)
    result = JobResult(kind=spec.kind, fingerprint=fingerprint,
                       result=payload, telemetry=telemetry,
                       elapsed=time.perf_counter() - started)
    artifacts = collect_artifacts(payload)
    if artifacts:
        result.extra["artifacts"] = artifacts
    if store is not None:
        # A job with a timed-out cell would replay that timeout even
        # under a larger (or no) timeout, which its key does not carry.
        if not any(call.timeouts for call in calls):
            store.put(JOB_CACHE_PREFIX + fingerprint, result.to_dict())
        store.persist_counters()  # keep `repro cache --stats` truthful
    return result
