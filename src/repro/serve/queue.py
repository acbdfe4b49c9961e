"""Job lifecycle: queueing, in-flight coalescing, worker threads.

A :class:`JobQueue` owns a bounded set of worker *threads* (each
running one job at a time through :func:`repro.harness.jobs.submit`)
and, when engine parallelism is requested, one persistent pool of
*processes* (:func:`~repro.harness.parallel.process_pool`: ``forkserver``
workers, so a script that builds one needs a main guard) shared by
every job, so the service never pays process start-up per submission.
A worker that dies fails the jobs on the pool with
``BrokenProcessPool``, and the queue replaces the pool once.

Dedup happens at two distinct moments, both in ``submit()`` under the
queue lock, through one fingerprint -> job index:

* **in flight** -- a second submission whose fingerprint is already
  queued or running returns the *same* :class:`Job` (coalesced; one
  execution, many watchers);
* **completed** -- a submission whose fingerprint the index maps to a
  retained ``done`` job is a new job, finished on the spot from that
  job's result (``cached=True``, ``telemetry=None``): no worker, no
  disk.  The index keeps a finished job exactly when
  :func:`repro.harness.jobs.submit` would have stored it in the result
  cache -- a queue with a cache, a ``done`` job, no timed-out cell --
  and drops it with the job when the finished-job bound evicts it.  A
  fingerprint the index does not know (evicted, or finished before a
  restart, in any process or transport) still replays from the result
  cache, inside :func:`~repro.harness.jobs.submit` on a worker.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue as queue_module
import threading
import time
from collections import deque
from typing import Iterator, Optional

from repro.harness.cache import resolve_cache
from repro.harness.jobs import JobResult, submit
from repro.harness.parallel import process_pool
from repro.harness.spec import JobSpec
from repro.obs.metrics import MetricsRegistry

#: States a job can be observed in; the last two are terminal.
JOB_STATES = ("queued", "running", "done", "failed")
TERMINAL_STATES = ("done", "failed")

#: How many finished jobs a queue keeps (about 20 KB each).  Older ones
#: are forgotten -- their ids answer 404, and their fingerprints leave
#: the index -- while their results stay in the result cache, if the
#: queue has one, so resubmitting the spec replays them from disk.
MAX_FINISHED_JOBS = 256


class Replay:
    """The result every memory replay of one fingerprint serves: one
    ``cached`` :class:`JobResult`, and its JSON encoding once a fetch
    has made it (:mod:`repro.serve.http`), shared by all those jobs."""

    __slots__ = ("result", "encoded")

    def __init__(self, result: JobResult):
        self.result = result
        self.encoded: Optional[bytes] = None


class Job:
    """One submitted job and everything observable about it."""

    def __init__(self, job_id: str, spec: JobSpec, fingerprint: str):
        self.id = job_id
        self.spec = spec
        self.fingerprint = fingerprint
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.progress = {"done": 0, "total": 0}
        self.result: Optional[JobResult] = None
        self.error: Optional[str] = None
        #: Event log for SSE subscribers (and late joiners, who replay
        #: it from the start).
        self.events: list[dict] = []
        #: How many submissions this job absorbed beyond the first.
        self.coalesced = 0
        #: Set when the job was replayed from a retained finished job.
        self.replay: Optional[Replay] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, include_result: bool = True) -> dict:
        data = {
            "id": self.id,
            "kind": self.spec.kind,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": dict(self.progress),
            "coalesced": self.coalesced,
            "error": self.error,
        }
        if include_result and self.result is not None:
            data["result"] = self.result.to_dict()
        return data


class JobQueue:
    """Priority job queue with coalescing, worker threads and metrics.

    Jobs drain in :attr:`~repro.harness.spec.JobSpec.priority` order
    (higher first), FIFO among equal priorities -- the default priority
    is 0, so a service that never sets it behaves exactly like the old
    FIFO queue.  Priority orders *dispatch only*: it is not part of the
    job fingerprint, so a high- and a low-priority submission of the
    same spec still coalesce into one execution.

    ``workers`` threads drain the queue concurrently (several *jobs* in
    flight); ``jobs`` is the engine parallelism *within* one job --
    when > 1 a persistent pool of that many processes is created and
    shared by all workers (see the module docstring).  ``start=False``
    leaves the workers unstarted so tests can assert queue state (e.g.
    coalescing) before anything executes; call :meth:`start` to begin
    draining.
    """

    def __init__(self, *, workers: int = 2, jobs: int = 1,
                 cache=True, timeout: Optional[float] = None,
                 retries: Optional[int] = None, start: bool = True):
        self.workers = max(1, workers)
        self.jobs = max(1, jobs or 1)
        self.cache = resolve_cache(cache)
        self.timeout = timeout
        self.retries = retries
        self.pool = (process_pool(self.jobs, persistent=True)
                     if self.jobs > 1 else None)
        self.metrics = MetricsRegistry()
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        # fingerprint -> id of its queued or running job (coalesce onto
        # it) or of its latest replayable finished job (replay it)
        self._index: dict[str, str] = {}
        self._finished: deque[str] = deque()  # terminal job ids, oldest first
        # (-priority, seq, job_id): heap pops highest priority first,
        # FIFO (by submission sequence) among equals.  The stop
        # sentinel's job_id is None, which plain tuples could compare
        # against a real entry's str id -- the seq tiebreak makes the
        # third element unreachable for ordering.
        self._pending: queue_module.PriorityQueue = \
            queue_module.PriorityQueue()
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._threads: list[threading.Thread] = []
        self._stopped = False
        if start:
            self.start()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        if self._threads:
            return
        for i in range(self.workers):
            thread = threading.Thread(target=self._worker,
                                      name=f"serve-worker-{i}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Drain-free shutdown: stop workers after their current job,
        close the process pool, persist cache hit/miss counters."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
        # Sentinel sorts after every real job, so pending work drains
        # before workers see the stop signal.
        self._pending.put((float("inf"), next(self._seq), None))
        for thread in self._threads:
            thread.join(timeout=30)
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)
        if self.cache is not None:
            self.cache.persist_counters()

    # -- submission -----------------------------------------------------
    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Enqueue ``spec``; returns ``(job, coalesced)``.

        ``coalesced`` is true when an identical job (same fingerprint)
        was already queued or running, in which case the existing job is
        returned and nothing new is enqueued.  When an identical job
        finished earlier and is still retained, the new job replays it
        and is ``done`` on return.
        """
        fingerprint = spec.fingerprint()
        with self._cond:
            self.metrics.counter("serve.jobs.submitted").inc()
            known = self._index.get(fingerprint)
            if known is not None:
                known = self._jobs[known]
                if not known.terminal:
                    known.coalesced += 1
                    self.metrics.counter("serve.jobs.coalesced").inc()
                    return known, True
            job = Job(f"j{next(self._ids):06d}", spec, fingerprint)
            self._jobs[job.id] = job
            self._index[fingerprint] = job.id
            self._emit(job, "queued", {"id": job.id, "kind": spec.kind})
            if known is not None:
                self._replay(job, known)
                return job, False
            item = (-spec.priority, next(self._seq), job.id)
        self._pending.put(item)
        return job, False

    # -- observation ----------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[Job]:
        with self._cond:
            return list(self._jobs.values())

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Optional[Job]:
        """Block until ``job_id`` reaches a terminal state."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            self._cond.wait_for(lambda: job.terminal, timeout=timeout)
            return job

    def events(self, job_id: str) -> Iterator[dict]:
        """Yield ``job_id``'s events from the beginning, live until the
        job reaches a terminal state (SSE backing iterator).  A watcher
        holds on to its job, so it streams to the end even if the job
        is forgotten meanwhile."""
        job = self.get(job_id)
        if job is None:
            return
        index = 0
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: len(job.events) > index or job.terminal,
                    timeout=30)
                fresh = job.events[index:]
                index = len(job.events)
                finished = job.terminal and not fresh
            yield from fresh
            if finished:
                return
            if not fresh:  # timed out idle; re-check for liveness
                continue

    # -- internals ------------------------------------------------------
    def _emit(self, job: Job, event: str, data: dict) -> None:
        """Append an event and wake watchers.  Caller holds the lock."""
        job.events.append({"event": event, "data": data})
        self._cond.notify_all()

    def _retire(self, job: Job) -> None:
        """Record ``job`` as finished and forget the oldest finished
        jobs beyond :data:`MAX_FINISHED_JOBS`, index entries included.
        Caller holds the lock.  Only terminal jobs are ever forgotten."""
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            old = self._jobs.pop(self._finished.popleft())
            if self._index.get(old.fingerprint) == old.id:
                del self._index[old.fingerprint]

    def _replay(self, job: Job, source: Job) -> None:
        """Finish ``job`` from the retained ``done`` job ``source``, as
        a result-cache replay of it would.  Caller holds the lock."""
        job.replay = source.replay or Replay(dataclasses.replace(
            source.result, cached=True, telemetry=None))
        job.state = "running"
        job.started_at = time.time()
        self._emit(job, "running", {"id": job.id})
        self._finish(job, job.replay.result)

    def _finish(self, job: Job, result: JobResult) -> None:
        """Mark ``job`` done with ``result``; the index keeps it as the
        fingerprint's replay source when the result cache would have
        stored it.  Caller holds the lock."""
        job.result = result
        job.state = "done"
        job.finished_at = time.time()
        if self.cache is None or (result.telemetry or {}).get("timeouts"):
            self._index.pop(job.fingerprint, None)
        self.metrics.counter("serve.jobs.completed").inc()
        if result.cached:
            self.metrics.counter("serve.jobs.replayed").inc()
        simulated = (result.telemetry or {}).get("simulated", 0)
        if simulated:
            self.metrics.counter("serve.cells.simulated").inc(simulated)
        self._emit(job, "done",
                   {"id": job.id, "cached": result.cached,
                    "elapsed": result.elapsed})
        self._retire(job)

    def _worker(self) -> None:
        while True:
            item = self._pending.get()
            job_id = item[2]
            if job_id is None:
                self._pending.put(item)  # wake the next worker too
                return
            self._run_job(self._jobs[job_id])

    def _run_job(self, job: Job) -> None:
        with self._cond:
            job.state = "running"
            job.started_at = time.time()
            self._emit(job, "running", {"id": job.id})

        def tap(done: int, total: int, outcome) -> None:
            with self._cond:
                job.progress = {"done": done, "total": total}
                self.metrics.counter("serve.cells.completed").inc()
                self._emit(job, "progress", {"done": done, "total": total})

        pool = self.pool
        try:
            result = submit(job.spec, jobs=self.jobs, timeout=self.timeout,
                            cache=self.cache, retries=self.retries,
                            pool=pool, progress=tap)
        except Exception as exc:  # a failed job must not kill its worker
            with self._cond:
                if pool is not None and pool is self.pool:
                    # Imported here: a queue without a pool never loads it.
                    from concurrent.futures.process import BrokenProcessPool
                    if isinstance(exc, BrokenProcessPool):
                        # The first job to see the dead worker replaces
                        # the pool; the others that shared it fail too.
                        self.pool = process_pool(self.jobs, persistent=True)
                        pool.shutdown(wait=False)
                job.state = "failed"
                job.finished_at = time.time()
                job.error = f"{type(exc).__name__}: {exc}"
                self._index.pop(job.fingerprint, None)
                self.metrics.counter("serve.jobs.failed").inc()
                self._emit(job, "failed", {"error": job.error})
                self._retire(job)
            return
        with self._cond:
            self._finish(job, result)
