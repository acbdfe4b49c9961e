"""End-to-end tests for ``repro serve``: HTTP job submission, dedup of
completed jobs (second identical sweep does zero simulation: replayed
from the queue's retained job, or from the result cache once that job
is gone), in-flight coalescing of concurrent submissions, SSE event
streams and the OpenMetrics endpoint.

The autouse cache-isolation fixture points ``REPRO_CACHE_DIR`` at a
fresh tmp dir per test, so ``cache=True`` here never touches (or is
warmed by) the developer's real cache.
"""

import contextlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.harness.cache import STATS_FILE, ResultCache
from repro.harness.experiments import EXPERIMENTS
from repro.harness.jobs import JOB_CACHE_PREFIX, JobResult, submit
from repro.harness.parallel import execute
from repro.harness.runner import result_fingerprint
from repro.harness.spec import JobSpec
from repro.serve import JobQueue, build_server
from repro.serve import queue as queue_module
from repro.serve.http import job_body
from tests.integration.test_parallel_sweeps import _child_env


def _tiny_sweep():
    return JobSpec.sweep("figure7", num_cpus=2, total_increments=16)


def _post_job(base, spec):
    request = urllib.request.Request(
        base + "/jobs", data=json.dumps(spec.to_dict()).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as response:
        assert response.status == 202
        return json.load(response)


def _get_json(base, path):
    with urllib.request.urlopen(base + path) as response:
        return json.load(response)


def _get_raw(base, path):
    with urllib.request.urlopen(base + path) as response:
        return response.read()


@contextlib.contextmanager
def _running_server(**kwargs):
    server = build_server(port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.queue.stop()
        thread.join(timeout=10)


@pytest.fixture
def server():
    with _running_server(workers=2) as server:
        yield server


@pytest.fixture
def cache_reads(monkeypatch):
    """Every key ``ResultCache.get`` is asked for, in order."""
    reads = []
    real_get = ResultCache.get

    def get(self, fingerprint):
        reads.append(fingerprint)
        return real_get(self, fingerprint)

    monkeypatch.setattr(ResultCache, "get", get)
    return reads


def _base(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


class TestServeEndToEnd:
    def test_second_identical_sweep_is_fully_cached(self, server):
        base = _base(server)
        spec = _tiny_sweep()

        first = _post_job(base, spec)
        job1 = server.queue.wait(first["id"], timeout=180)
        assert job1.state == "done"
        assert job1.result.cached is False
        assert (job1.result.telemetry or {}).get("simulated", 0) >= 1

        simulated_before = server.queue.metrics.counter(
            "serve.cells.simulated").value

        second = _post_job(base, spec)
        assert second["id"] != first["id"]  # first already completed
        job2 = server.queue.wait(second["id"], timeout=60)
        assert job2.state == "done"
        assert job2.result.cached is True       # replayed, not re-run
        assert job2.result.telemetry is None    # nothing executed

        simulated_after = server.queue.metrics.counter(
            "serve.cells.simulated").value
        assert simulated_after == simulated_before  # zero new simulations

        # Both jobs agree on the payload and its fingerprints.
        assert job1.result.fingerprint == job2.result.fingerprint
        assert job1.result.result == job2.result.result

    def test_job_detail_and_listing(self, server):
        base = _base(server)
        created = _post_job(base, _tiny_sweep())
        server.queue.wait(created["id"], timeout=180)

        detail = _get_json(base, "/jobs/" + created["id"])
        assert detail["state"] == "done"
        assert detail["kind"] == "sweep"
        assert detail["result"]["result"]["cycles"] > 0

        listing = _get_json(base, "/jobs")
        assert any(job["id"] == created["id"] for job in listing["jobs"])

    def test_sse_stream_replays_and_terminates(self, server):
        base = _base(server)
        created = _post_job(base, _tiny_sweep())
        server.queue.wait(created["id"], timeout=180)

        # Late joiner: the stream replays history, then closes because
        # the job is terminal.
        with urllib.request.urlopen(
                base + "/jobs/" + created["id"] + "/events") as response:
            assert response.headers["Content-Type"].startswith(
                "text/event-stream")
            body = response.read().decode()
        events = [line.split(": ", 1)[1] for line in body.splitlines()
                  if line.startswith("event: ")]
        assert events[0] == "queued"
        assert events[-1] == "done"
        assert "running" in events

    def test_metrics_exposition(self, server):
        base = _base(server)
        created = _post_job(base, _tiny_sweep())
        server.queue.wait(created["id"], timeout=180)

        request = urllib.request.Request(base + "/metrics")
        with urllib.request.urlopen(request) as response:
            text = response.read().decode()
            content_type = response.headers["Content-Type"]
        assert content_type.startswith("application/openmetrics-text")
        assert text.endswith("# EOF\n")
        assert 'target_info{' in text
        assert 'service="repro-serve"' in text
        assert "serve_jobs_submitted_total 1" in text

    def test_healthz_and_errors(self, server):
        base = _base(server)
        assert _get_json(base, "/healthz")["ok"] is True

        with pytest.raises(urllib.error.HTTPError) as notfound:
            urllib.request.urlopen(base + "/jobs/j999999")
        assert notfound.value.code == 404

        def unknown_kind(kind):
            return json.dumps({"schema": 1, "kind": kind,
                               "params": {}}).encode()
        for body, names in ((b"not json", "bad job spec"),
                            (unknown_kind("perf"), "unknown job kind 'perf'"),
                            (unknown_kind("sched"),
                             "unknown job kind 'sched'")):
            bad = urllib.request.Request(base + "/jobs", data=body,
                                         headers={"Content-Type":
                                                  "application/json"})
            with pytest.raises(urllib.error.HTTPError) as badreq:
                urllib.request.urlopen(bad)
            assert badreq.value.code == 400
            assert names in json.load(badreq.value)["error"]


class TestMemoryReplay:
    """A resubmission of a fingerprint whose finished job the queue
    still keeps is replayed inside ``JobQueue.submit``."""

    def test_memory_replay_reads_nothing_and_matches_a_disk_replay(
            self, server, cache_reads):
        base = _base(server)
        spec = _tiny_sweep()
        first = _post_job(base, spec)
        server.queue.wait(first["id"], timeout=180)

        del cache_reads[:]
        posted = _post_job(base, spec)
        assert posted["state"] == "done" and posted["coalesced"] is False
        raw = _get_raw(base, "/jobs/" + posted["id"])
        again = _post_job(base, spec)
        assert _get_raw(base, "/jobs/" + posted["id"]) == raw
        assert cache_reads == []  # no result-cache read at all
        queue = server.queue
        assert queue.get(again["id"]).replay is queue.get(posted["id"]).replay
        assert queue.get(first["id"]).replay is None
        assert queue.metrics.counter("serve.jobs.replayed").value == 2

        # A new server over the same cache retains no job, so it
        # replays the same fingerprint from disk.
        with _running_server(workers=1) as other:
            disk_id = _post_job(_base(other), spec)["id"]
            assert other.queue.wait(disk_id, timeout=60).state == "done"
            disk = _get_json(_base(other), "/jobs/" + disk_id)
        assert cache_reads == [JOB_CACHE_PREFIX + spec.fingerprint()]

        memory = json.loads(raw)
        assert memory["result"]["cached"] is True
        assert memory["result"]["telemetry"] is None
        for doc in (memory, disk):
            for key in ("id", "submitted_at", "started_at", "finished_at"):
                doc.pop(key)
        assert memory == disk

    def test_only_what_the_result_cache_would_keep_is_replayed(
            self, monkeypatch):
        executed = []

        def submit(spec, **kwargs):
            n = spec.params["total_increments"]
            executed.append(n)
            if n == 16:
                raise RuntimeError("boom")
            return JobResult(kind=spec.kind, fingerprint=spec.fingerprint(),
                             result={}, telemetry={"timeouts": int(n == 17)})

        monkeypatch.setattr(queue_module, "submit", submit)

        def twice(queue, n):
            spec = JobSpec.sweep("figure7", num_cpus=2, total_increments=n)
            jobs = []
            for _ in range(2):
                job, _ = queue.submit(spec)
                jobs.append(queue.wait(job.id, timeout=30))
            return jobs

        queue = JobQueue(workers=1)
        try:
            failed, retried = twice(queue, 16)  # a failed job
            assert failed.state == retried.state == "failed"
            timed_out, rerun = twice(queue, 17)  # a timed-out cell
            assert rerun.result.cached is False
            done, replayed = twice(queue, 18)
            assert replayed.result.cached is True
            assert executed == [16, 16, 17, 17, 18]
        finally:
            queue.stop()
        uncached = JobQueue(workers=1, cache=False)
        try:
            twice(uncached, 18)
            assert executed[-2:] == [18, 18]
        finally:
            uncached.stop()

    def test_concurrent_resubmissions_run_each_fingerprint_once(
            self, monkeypatch):
        executed = []

        def submit(spec, **kwargs):
            executed.append(spec.fingerprint())
            time.sleep(0.01)
            return JobResult(kind=spec.kind, fingerprint=spec.fingerprint(),
                             result={"n": spec.params["total_increments"]})

        monkeypatch.setattr(queue_module, "submit", submit)
        specs = [JobSpec.sweep("figure7", num_cpus=2, total_increments=n)
                 for n in (16, 17)]
        queue = JobQueue(workers=4)
        errors = []

        def client(k):
            try:
                for i in range(25):
                    spec = specs[(k + i) % 2]
                    job, _ = queue.submit(spec)
                    assert queue.wait(job.id, timeout=30).state == "done"
                    body = json.loads(job_body(job))
                    assert body["result"]["result"] == {
                        "n": spec.params["total_increments"]}
            except Exception as exc:  # reported below, not lost
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            queue.stop()
        assert errors == []
        assert sorted(executed) == sorted(spec.fingerprint()
                                          for spec in specs)
        count = {name: queue.metrics.counter(f"serve.jobs.{name}").value
                 for name in ("submitted", "coalesced", "completed",
                              "replayed")}
        assert count["submitted"] == 200
        assert count["coalesced"] + count["completed"] == 200
        assert count["replayed"] == count["completed"] - 2

    def test_evicted_jobs_replay_from_disk(self, monkeypatch, cache_reads):
        from repro.harness import jobs as jobs_module

        monkeypatch.setattr(jobs_module, "_execute_job",
                            lambda spec, **kwargs: {"n": spec.params[
                                "total_increments"]})
        specs = [JobSpec.sweep("figure7", num_cpus=2, total_increments=n)
                 for n in range(1, 301)]
        queue = JobQueue(workers=1)
        try:
            for spec in specs:
                job, _ = queue.submit(spec)
                assert queue.wait(job.id, timeout=30).state == "done"
            bound = queue_module.MAX_FINISHED_JOBS
            assert len(queue.list_jobs()) == bound
            assert len(queue._index) == bound

            del cache_reads[:]
            retained, _ = queue.submit(specs[-1])
            assert retained.state == "done" and retained.result.cached
            assert cache_reads == []
            evicted, _ = queue.submit(specs[0])
            assert queue.wait(evicted.id, timeout=30).result.cached is True
            assert cache_reads == [JOB_CACHE_PREFIX + specs[0].fingerprint()]
        finally:
            queue.stop()


class TestCoalescing:
    def test_concurrent_identical_submissions_share_one_job(self):
        queue = JobQueue(workers=1, start=False)  # nothing drains yet
        try:
            spec = _tiny_sweep()
            results = []

            def submit_one():
                results.append(queue.submit(spec))

            threads = [threading.Thread(target=submit_one)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            jobs = {job.id for job, _ in results}
            assert len(jobs) == 1  # one execution, many watchers
            assert sum(1 for _, coalesced in results if coalesced) == 3
            job = results[0][0]
            assert job.coalesced == 3
            assert queue.metrics.counter("serve.jobs.submitted").value == 4
            assert queue.metrics.counter("serve.jobs.coalesced").value == 3

            # Drain: the single job runs once and completes.
            queue.start()
            finished = queue.wait(job.id, timeout=180)
            assert finished.state == "done"
            assert queue.metrics.counter(
                "serve.jobs.completed").value == 1
        finally:
            queue.stop()

    def test_different_specs_do_not_coalesce(self):
        queue = JobQueue(workers=1, start=False)
        try:
            job_a, coalesced_a = queue.submit(_tiny_sweep())
            job_b, coalesced_b = queue.submit(
                JobSpec.sweep("figure7", num_cpus=2, total_increments=32))
            assert not coalesced_a and not coalesced_b
            assert job_a.id != job_b.id
        finally:
            queue.stop()


class TestFinishedJobBound:
    """The queue keeps only the most recent ``MAX_FINISHED_JOBS``
    finished jobs.  Jobs run through a stand-in ``submit`` here, so
    each one finishes at once unless its spec is told to wait."""

    @pytest.fixture
    def fake_submit(self, monkeypatch):
        monkeypatch.setattr(queue_module, "MAX_FINISHED_JOBS", 1)
        gates = {}  # fingerprint -> Event the job waits on

        def submit(spec, **kwargs):
            gate = gates.get(spec.fingerprint())
            if gate is not None:
                assert gate.wait(timeout=30)
            return JobResult(kind=spec.kind,
                             fingerprint=spec.fingerprint(), result={})

        monkeypatch.setattr(queue_module, "submit", submit)
        return gates

    @staticmethod
    def _spec(n, priority=0):
        spec = JobSpec.sweep("figure7", num_cpus=2, total_increments=n)
        spec.priority = priority
        return spec

    def test_only_the_most_recent_finished_jobs_are_kept(self, fake_submit):
        queue = JobQueue(workers=1, cache=False)
        try:
            ids = []
            for n in (16, 17, 18):
                job, _ = queue.submit(self._spec(n))
                assert queue.wait(job.id, timeout=30).state == "done"
                ids.append(job.id)
            assert queue.get(ids[0]) is None and queue.get(ids[1]) is None
            assert queue.get(ids[2]).state == "done"
            assert [job.id for job in queue.list_jobs()] == ids[2:]
        finally:
            queue.stop()

    def test_queued_and_running_jobs_are_never_evicted(self, fake_submit):
        queue = JobQueue(workers=1, cache=False, start=False)
        try:
            # Priority orders the drain: two jobs finish, the third
            # runs and waits, the last stays queued behind it.
            done_a, _ = queue.submit(self._spec(16, priority=4))
            done_b, _ = queue.submit(self._spec(17, priority=3))
            running_spec = self._spec(18, priority=2)
            gate = fake_submit[running_spec.fingerprint()] = \
                threading.Event()
            running, _ = queue.submit(running_spec)
            queued, _ = queue.submit(self._spec(19, priority=1))
            queue.start()
            queue.wait(done_b.id, timeout=30)
            assert queue.get(done_a.id) is None
            assert queue.get(done_b.id).state == "done"
            assert queue.get(running.id).state == "running"
            assert queue.get(queued.id).state == "queued"
            # Coalescing still reaches the running job.
            again, coalesced = queue.submit(running_spec)
            assert coalesced and again is running
            gate.set()
            assert queue.wait(queued.id, timeout=30).state == "done"
            assert [job.id for job in queue.list_jobs()] == [queued.id]
        finally:
            queue.stop()

    def test_replay_does_not_wait_for_a_busy_worker(self, fake_submit):
        with _running_server(workers=1) as server:
            base = _base(server)
            finished = _post_job(base, self._spec(16))["id"]
            server.queue.wait(finished, timeout=30)
            busy_spec = self._spec(17)
            gate = fake_submit[busy_spec.fingerprint()] = threading.Event()
            try:
                busy = server.queue.get(_post_job(base, busy_spec)["id"])
                deadline = time.monotonic() + 30
                while busy.state != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                posted = _post_job(base, self._spec(16))
                assert posted["state"] == "done"
                replay = server.queue.get(posted["id"])
                assert replay.result.cached is True
                assert replay.result.telemetry is None
                assert busy.state == "running"
            finally:
                gate.set()

    def test_evicted_job_leaves_the_fingerprint_index(self, fake_submit):
        queue = JobQueue(workers=1)
        try:
            first, _ = queue.submit(self._spec(16))
            queue.wait(first.id, timeout=30)
            second, _ = queue.submit(self._spec(17))
            queue.wait(second.id, timeout=30)
            assert queue.get(first.id) is None
            assert list(queue._index) == [second.fingerprint]
            again, _ = queue.submit(self._spec(16))
            assert queue.wait(again.id, timeout=30).result.cached is False
        finally:
            queue.stop()

    def test_evicted_id_returns_404(self, fake_submit):
        with _running_server(workers=1, cache=False) as server:
            base = _base(server)
            old = _post_job(base, self._spec(16))["id"]
            server.queue.wait(old, timeout=30)
            new = _post_job(base, self._spec(17))["id"]
            server.queue.wait(new, timeout=30)
            assert _get_json(base, f"/jobs/{new}")["state"] == "done"
            for path in (f"/jobs/{old}", f"/jobs/{old}/events"):
                with pytest.raises(urllib.error.HTTPError) as missing:
                    urllib.request.urlopen(base + path)
                assert missing.value.code == 404


class TestPersistentPool:
    """``JobQueue(jobs > 1)``: the process pool the queue owns and
    shares across jobs."""

    SWEEP = {"processor_counts": [2, 4], "total_increments": 64}

    @staticmethod
    def _pool_workers(before):
        return [process for process in multiprocessing.active_children()
                if process.pid not in before]

    def test_pooled_sweep_matches_the_serial_fingerprints(self):
        spec = JobSpec.sweep("figure9", **self.SWEEP)
        specs = EXPERIMENTS["figure9"].plan(**self.SWEEP)
        queue = JobQueue(workers=2, jobs=2)
        try:
            job, _ = queue.submit(spec)
            job = queue.wait(job.id, timeout=120)
        finally:
            queue.stop()
        assert job.state == "done", job.error
        assert job.result.telemetry["simulated"] == len(specs)
        assert job.result.result == submit(spec, cache=False).result
        # The pool's cells are in the queue's cache; replay them.
        pooled, telemetry = execute(specs, cache=queue.cache)
        assert telemetry.cache_hits == len(specs)
        serial, _ = execute(specs)
        assert [result_fingerprint(o) for o in pooled] == \
            [result_fingerprint(o) for o in serial]

    def test_killed_worker_fails_its_job_and_the_next_job_runs(self):
        before = {process.pid for process in
                  multiprocessing.active_children()}
        queue = JobQueue(workers=1, jobs=2)
        try:
            doomed, _ = queue.submit(JobSpec.sweep(
                "figure9", processor_counts=[2, 4, 8, 16],
                total_increments=1024))
            for event in queue.events(doomed.id):
                if event["event"] == "progress":
                    break  # the workers are up and cells remain
            os.kill(self._pool_workers(before)[0].pid, signal.SIGKILL)
            doomed = queue.wait(doomed.id, timeout=120)
            assert doomed.state == "failed"
            assert doomed.error.startswith("BrokenProcessPool"), doomed.error
            after, _ = queue.submit(JobSpec.sweep("figure9", **self.SWEEP))
            assert queue.wait(after.id, timeout=120).state == "done"
            workers = self._pool_workers(before)
            assert workers
        finally:
            queue.stop()
        assert not any(worker.is_alive() for worker in workers)
        assert not self._pool_workers(before)


class TestShutdown:
    """``repro serve`` as a process: a plain ``kill`` (SIGTERM) takes
    the same shutdown path as Ctrl-C."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sigterm_stops_the_queue_and_exits_0(self, jobs, tmp_path):
        env = dict(_child_env(), PYTHONUNBUFFERED="1",
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--jobs", str(jobs)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            banner = child.stdout.readline()
            port = re.search(r"http://[\d.]+:(\d+)", banner)
            assert port, banner + child.stderr.read()
            base = f"http://127.0.0.1:{port.group(1)}"
            # Ten cells, so with --jobs 2 the pool does the work.
            job = _post_job(base, JobSpec.sweep(
                "figure9", processor_counts=[2, 4], total_increments=16))
            deadline = time.monotonic() + 120
            while _get_json(base, f"/jobs/{job['id']}")["state"] != "done":
                assert time.monotonic() < deadline, "job never finished"
                time.sleep(0.05)
            child.send_signal(signal.SIGTERM)
            out, err = child.communicate(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == 0, err
        assert "shutting down" in out
        assert "leaked semaphore" not in err
        stats = json.loads((tmp_path / "cache" / STATS_FILE).read_text())
        assert stats["misses"] >= 10
