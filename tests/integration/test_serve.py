"""End-to-end tests for ``repro serve``: HTTP job submission, dedup of
completed jobs through the result cache (second identical sweep does
zero simulation), in-flight coalescing of concurrent submissions, SSE
event streams and the OpenMetrics endpoint.

The autouse cache-isolation fixture points ``REPRO_CACHE_DIR`` at a
fresh tmp dir per test, so ``cache=True`` here never touches (or is
warmed by) the developer's real cache.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.harness.spec import JobSpec
from repro.serve import JobQueue, build_server


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


@pytest.fixture
def server():
    server = build_server(port=0, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.queue.stop()
        thread.join(timeout=10)


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
        from repro.harness.jobs import JobResult
        from repro.serve import queue as queue_module

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

    def test_job_coalescing_points_at_is_never_evicted(self, fake_submit):
        queue = JobQueue(workers=1, cache=False)
        try:
            first, _ = queue.submit(self._spec(16))
            queue.wait(first.id, timeout=30)
            # A finished job is no longer a coalescing target; make it
            # one by hand to check that eviction leaves such a job be.
            with queue._cond:
                queue._inflight[first.fingerprint] = first.id
            second, _ = queue.submit(self._spec(17))
            queue.wait(second.id, timeout=30)
            assert queue.get(first.id) is first
            again, coalesced = queue.submit(self._spec(16))
            assert coalesced and again is first
        finally:
            queue.stop()

    def test_evicted_id_returns_404(self, fake_submit):
        server = build_server(port=0, workers=1, cache=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
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
        finally:
            server.shutdown()
            server.server_close()
            server.queue.stop()
            thread.join(timeout=10)
