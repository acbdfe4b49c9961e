"""Service assembly: queue + HTTP server + optional regeneration.

:func:`build_server` wires a :class:`~repro.serve.queue.JobQueue` to a
:class:`~repro.serve.http.JobServer` without starting anything (tests
bind port 0 and drive it in-process); :func:`serve` is the blocking
``repro serve`` entry point.
"""

from __future__ import annotations

import signal
import sys
import threading
from typing import Optional

from repro.serve.http import JobServer
from repro.serve.queue import JobQueue


def build_server(host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, jobs: int = 1, cache=True,
                 timeout: Optional[float] = None,
                 start: bool = True,
                 verbose: bool = False) -> JobServer:
    """A bound (but not yet serving) server plus its queue."""
    queue = JobQueue(workers=workers, jobs=jobs, cache=cache,
                     timeout=timeout, start=start)
    return JobServer((host, port), queue, verbose=verbose)


def serve(host: str = "127.0.0.1", port: int = 8023, *,
          workers: int = 2, jobs: int = 1, cache=True,
          timeout: Optional[float] = None,
          regen: bool = False,
          verbose: bool = False,
          stream=None) -> None:
    """Run the service until interrupted (SIGINT, or SIGTERM when
    called on the main thread: both stop the queue, which shuts the
    pool down and persists the cache counters).

    With ``regen``, first compare the committed ``BENCH_*.json``
    artifacts' cells against the result cache and re-simulate only the
    stale ones (priming the cache the service then serves from).
    """
    out = stream or sys.stdout
    if regen:
        from repro.harness import invalidate
        plans = invalidate.plan(cache=cache)
        print(invalidate.render_plan(plans), file=out)
        summary = invalidate.regenerate(plans, jobs=jobs, cache=cache,
                                        timeout=timeout)
        print(f"regenerated {summary['simulated']} stale cell(s) "
              f"in {summary['wall_seconds']:.1f}s", file=out)
    server = build_server(host, port, workers=workers, jobs=jobs,
                          cache=cache, timeout=timeout, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:  # a plain ``kill`` takes the Ctrl-C path
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        print(f"repro serve: listening on http://{bound_host}:{bound_port} "
              f"({workers} worker thread(s), engine jobs={jobs}, "
              f"cache={'on' if server.queue.cache is not None else 'off'})",
              file=out)
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", file=out)
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)
        server.server_close()
        server.queue.stop()
