"""HTTP transport for the job queue (stdlib ``http.server`` only).

Endpoints:

* ``POST /jobs`` -- body is a :class:`~repro.harness.spec.JobSpec`
  envelope (``{"kind": ..., "params": {...}}``); responds ``202`` with
  the job id, fingerprint, state and whether the submission coalesced
  onto an already-in-flight identical job.  The state is ``done`` when
  the queue replayed a retained finished job on the spot.
* ``GET /jobs`` -- all jobs, summaries only.
* ``GET /jobs/<id>`` -- one job, including its result when done.
* ``GET /jobs/<id>/events`` -- Server-Sent Events: the job's event log
  from the beginning, streamed live until it finishes.
* ``GET /jobs/<id>/artifacts`` -- names of the job's on-disk artifacts
  (e.g. auto-captured ``.rlog`` record logs from a verify failure).
* ``GET /jobs/<id>/artifacts/<name>`` -- download one artifact as
  ``application/octet-stream``.
* ``GET /metrics`` -- service counters in OpenMetrics text format.
* ``GET /dashboard`` -- the live HTML dashboard
  (:mod:`repro.serve.dashboard`): job table, SSE-fed event stream and
  the finished job's per-lock contention profile / conflict matrix.
* ``GET /healthz`` -- liveness.

The server is a ``ThreadingHTTPServer``: every request (including
long-lived SSE streams) gets its own thread, while execution stays in
the queue's worker threads -- a slow watcher can never stall a job.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.harness.spec import FINGERPRINT_VERSION, JobSpec, RESULT_SCHEMA
from repro.serve.queue import Job, JobQueue

OPENMETRICS_CONTENT_TYPE = ("application/openmetrics-text; "
                            "version=1.0.0; charset=utf-8")


def job_body(job: Job) -> bytes:
    """``job.to_dict()`` as JSON bytes.  A memory replay splices in its
    result's shared encoding, made by the first fetch of any job that
    replays the same result, instead of encoding the payload again."""
    replay = job.replay
    if replay is None:
        return json.dumps(job.to_dict()).encode("utf-8")
    if replay.encoded is None:
        replay.encoded = json.dumps(replay.result.to_dict()).encode("utf-8")
    head = json.dumps(job.to_dict(include_result=False))
    return b"".join((head[:-1].encode("utf-8"), b', "result": ',
                     replay.encoded, b"}"))


class JobServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`JobQueue`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, queue: JobQueue, verbose: bool = False):
        super().__init__(address, JobHandler)
        self.queue = queue
        self.verbose = verbose


class JobHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"

    @property
    def queue(self) -> JobQueue:
        return self.server.queue

    def log_message(self, fmt, *args):  # quiet by default
        if self.server.verbose:
            super().log_message(fmt, *args)

    # -- helpers --------------------------------------------------------
    def _send_json(self, code: int, payload: dict) -> None:
        self._send(code, json.dumps(payload).encode("utf-8"),
                   "application/json")

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        self._send(code, text.encode("utf-8"), content_type)

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _not_found(self) -> None:
        self._send_json(404, {"error": f"no such path {self.path!r}"})

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/healthz":
            self._send_json(200, {"ok": True,
                                  "jobs": len(self.queue.list_jobs())})
        elif path == "/metrics":
            text = self.queue.metrics.to_openmetrics(meta={
                "service": "repro-serve",
                "fingerprint_version": FINGERPRINT_VERSION,
                "result_schema": RESULT_SCHEMA,
            })
            self._send_text(200, text, OPENMETRICS_CONTENT_TYPE)
        elif path == "/dashboard":
            from repro.serve.dashboard import (DASHBOARD_CONTENT_TYPE,
                                               DASHBOARD_HTML)
            self._send_text(200, DASHBOARD_HTML, DASHBOARD_CONTENT_TYPE)
        elif path == "/jobs":
            self._send_json(200, {"jobs": [
                job.to_dict(include_result=False)
                for job in self.queue.list_jobs()]})
        elif path.startswith("/jobs/") and path.endswith("/events"):
            self._stream_events(path[len("/jobs/"):-len("/events")])
        elif path.startswith("/jobs/") and "/artifacts" in path:
            rest = path[len("/jobs/"):]
            job_id, _, name = rest.partition("/artifacts")
            self._send_artifact(job_id, name.lstrip("/"))
        elif path.startswith("/jobs/"):
            job = self.queue.get(path[len("/jobs/"):])
            if job is None:
                self._not_found()
            else:
                self._send(200, job_body(job), "application/json")
        else:
            self._not_found()

    def do_POST(self) -> None:
        if self.path.split("?", 1)[0].rstrip("/") != "/jobs":
            self._not_found()
            return
        length = int(self.headers.get("Content-Length") or 0)
        try:
            spec = JobSpec.from_dict(json.loads(
                self.rfile.read(length).decode("utf-8")))
        except (json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            self._send_json(400, {"error": f"bad job spec: {exc}"})
            return
        job, coalesced = self.queue.submit(spec)
        self._send_json(202, {"id": job.id,
                              "fingerprint": job.fingerprint,
                              "state": job.state,
                              "coalesced": coalesced})

    def _send_artifact(self, job_id: str, name: str) -> None:
        job = self.queue.get(job_id)
        if job is None or job.result is None:
            self._not_found()
            return
        artifacts = (job.result.extra or {}).get("artifacts") or {}
        if not name:
            self._send_json(200, {"artifacts": sorted(artifacts)})
            return
        # Names are an allow-list from the registry -- never a path
        # taken from the URL -- so traversal is structurally impossible.
        path = artifacts.get(name)
        if path is None:
            self._not_found()
            return
        try:
            with open(path, "rb") as fh:
                body = fh.read()
        except OSError:
            self._send_json(410, {"error": f"artifact {name!r} vanished"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Disposition",
                         f'attachment; filename="{name}"')
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream_events(self, job_id: str) -> None:
        if self.queue.get(job_id) is None:
            self._not_found()
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        try:
            for event in self.queue.events(job_id):
                chunk = (f"event: {event['event']}\n"
                         f"data: {json.dumps(event['data'])}\n\n")
                self.wfile.write(chunk.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # watcher went away; the job keeps running
