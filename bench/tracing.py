"""Spans, the rebuilt default path and the observer ladder.

Spans are recorded by the benchmark's own code around its calls into
the program; nothing inside ``src/`` is instrumented.  They stay in
memory and are written once, at exit, in Chrome-trace format
(``chrome://tracing`` or Perfetto open the file).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Optional

from repro import Machine, ResultCache, RunResult
from repro.harness.runner import result_fingerprint
from repro.obs import LockProfiler, MachineMetrics
from repro.record import FlightRecorder
from repro.sim.trace import Tracer
from repro.verify import FootprintRecorder


class Spans:
    """In-memory span log: name, start, end, parent span and op id."""

    def __init__(self) -> None:
        self.records: list[tuple] = []  # (name, start_ns, end_ns, parent, op)
        self.op: Optional[str] = None
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.records.append((name, start, end, parent, self.op))

    def durations(self, name: str, op_prefix: str = "") -> list[float]:
        """Seconds of every span called ``name`` whose op id starts
        with ``op_prefix``."""
        return [(end - start) / 1e9
                for span_name, start, end, _parent, op in self.records
                if span_name == name and (op or "").startswith(op_prefix)]

    def write_chrome(self, path, process_name: str) -> None:
        origin = min((r[1] for r in self.records), default=0)
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": process_name}}]
        for name, start, end, parent, op in self.records:
            events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                           "ts": (start - origin) / 1e3,
                           "dur": (end - start) / 1e3,
                           "args": {"parent": parent, "op": op}})
        path.write_text(json.dumps({"traceEvents": events}))


class TimedCache(ResultCache):
    """A :class:`ResultCache` whose reads and writes are spans."""

    def __init__(self, root, spans: Spans):
        super().__init__(root)
        self.spans = spans

    def get(self, fingerprint):
        with self.spans.span("cache.get"):
            return super().get(fingerprint)

    def put(self, fingerprint, payload):
        with self.spans.span("cache.put"):
            super().put(fingerprint, payload)


#: The observer ladder, bare first.  Each rung adds one observer to the
#: rung before it; rung 2 (metrics + profiler) is ``execute_workload``'s
#: default path.
LADDER = ("bare", "metrics", "profiler", "tracer", "recorder", "footprint")
DEFAULT_RUNG = LADDER.index("profiler")


def rebuilt_run(spec, spans: Spans, rung: int = DEFAULT_RUNG) -> dict:
    """``execute_workload``'s steps rebuilt from public calls, with a
    span around each, plus the observers of ``LADDER[:rung + 1]``.

    Returns the result, its fingerprint, the kernel's event count, the
    seconds spent in ``run_workload`` and the size of the serialized
    result.
    """
    config = spec.config if rung > 0 else replace(spec.config, metrics=False)
    with spans.span("rebuilt_run"):
        with spans.span("workloads.build"):
            workload = spec.build_workload()
        with spans.span("harness.machine_build"):
            machine = Machine(config)
        with spans.span("obs.attach"):
            collector = MachineMetrics().attach(machine) if rung >= 1 else None
            profiler = LockProfiler().attach(machine) if rung >= 2 else None
            if rung >= 3:
                Tracer().attach(machine)
            recorder = (FlightRecorder(spec).attach(machine)
                        if rung >= 4 else None)
            if rung >= 5:
                FootprintRecorder().attach(machine)
        with spans.span("sim.run"):
            stats = machine.run_workload(workload, validate=spec.validate)
        _name, run_start, run_end, _parent, _op = spans.records[-1]
        with spans.span("harness.finalize"):
            metrics = None
            if collector is not None:
                if profiler is not None:
                    profiler.publish(collector.registry)
                metrics = collector.finalize(machine)
                if profiler is not None:
                    metrics["profile"] = profiler.snapshot()
        result = RunResult(config=config, workload_name=workload.name,
                           stats=stats, store=machine.store, metrics=metrics)
        with spans.span("harness.fingerprint"):
            fingerprint = result_fingerprint(result)
        if recorder is not None:
            recorder.finish(fingerprint)
        with spans.span("harness.to_dict"):
            blob = json.dumps(result.to_dict())
    return {"result": result, "fingerprint": fingerprint,
            "events": machine.sim.events_fired,
            "run_s": (run_end - run_start) / 1e9, "result_bytes": len(blob)}
