"""A ``repro serve`` subprocess and a closed-loop HTTP client for it.

One client, one request at a time: a job is POSTed, its SSE stream is
read until the ``done`` event, and the finished job is fetched.  At
most two connections are open at once (the stream and nothing else).
"""

from __future__ import annotations

import http.client
import json
import select
import signal
import subprocess
import sys
import time

LISTEN_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 120
#: Two handler threads and no process pool: with ``nproc`` = 2, the
#: server and the one client already fill the host.
SERVE_WORKERS = 2
SERVE_JOBS = 1


class ServeError(RuntimeError):
    """The server misbehaved: bad status, broken stream, early exit."""


class ServeProcess:
    """``python -m repro serve --port 0`` with a private cache."""

    def __init__(self, cache_dir, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVE_WORKERS), "--jobs", str(SERVE_JOBS),
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, text=True, env=env)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    LISTEN_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.close()
            raise ServeError(f"server did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise ServeError("no VmHWM in /proc status")

    def close(self) -> None:
        """Interrupt the server (its clean-shutdown path) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class ServeClient:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str, body: bytes = None) -> bytes:
        conn = self._connect()
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        if not 200 <= resp.status < 300:
            raise ServeError(f"{method} {path} -> HTTP {resp.status}")
        return data

    def wait_done(self, job_id: str) -> dict:
        """Read the job's SSE stream until a terminal event."""
        conn = self._connect()
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            resp = conn.getresponse()
            if resp.status != 200:
                raise ServeError(f"events {job_id} -> HTTP {resp.status}")
            event = None
            while True:
                line = resp.readline().decode("utf-8")
                if not line:
                    raise ServeError(f"stream of {job_id} ended early")
                if line.startswith("event: "):
                    event = line[len("event: "):].strip()
                elif line.startswith("data: ") and event in ("done",
                                                             "failed"):
                    return {"event": event,
                            "data": json.loads(line[len("data: "):])}
        finally:
            conn.close()

    def run_job(self, job: dict, spans=None) -> dict:
        """POST ``job``, wait for ``done``, fetch it.  Returns the POST
        reply, the terminal event, the fetched job's raw body and each
        phase's seconds."""
        phases = {}

        def phase(name, fn):
            start = time.perf_counter()
            if spans is None:
                value = fn()
            else:
                with spans.span(name):
                    value = fn()
            phases[name] = time.perf_counter() - start
            return value

        posted = json.loads(phase("serve.post", lambda: self.request(
            "POST", "/jobs", json.dumps(job).encode("utf-8"))))
        terminal = phase("serve.wait", lambda: self.wait_done(posted["id"]))
        body = phase("serve.fetch",
                     lambda: self.request("GET", f"/jobs/{posted['id']}"))
        return {"posted": posted, "terminal": terminal, "body": body,
                "phases": phases}
