"""MachineMetrics: the collector the simulated machine publishes into.

Attachment follows the verify layer's ``monitor`` pattern: every
:class:`~repro.coherence.controller.CacheController` and
:class:`~repro.cpu.processor.Processor` carries an ``obs`` attribute
that is ``None`` in normal runs; :meth:`MachineMetrics.attach` points
them all at one collector, and each hook site pays a single attribute
test when collection is off.

Sampling is **event-driven**, never timer-driven: a periodic
self-rescheduling sampler event would keep the kernel's queue non-empty
and turn a genuine deadlock (queue drained with incomplete actors) into
a max-cycles livelock diagnostic.  Deferral-queue depth is therefore
observed at each push -- every change of the queue passes through a
hook anyway -- and latencies are measured by pairing the open/close
events (request->data, defer->service, marker/probe send->receive).

The collector only *reads* simulation state; it schedules nothing and
mutates nothing, so attaching it cannot change a run's fingerprint
(pinned by the golden-fingerprint tests, which run with metrics on).
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import (DEPTH_BUCKETS, LATENCY_BUCKETS, RETRY_BUCKETS,
                               MetricsRegistry)

if TYPE_CHECKING:  # pragma: no cover
    from repro.coherence.controller import CacheController
    from repro.coherence.messages import BusRequest, Marker, Probe
    from repro.cpu.processor import Processor
    from repro.harness.machine import Machine


class MachineMetrics:
    """Collects conflict/latency telemetry from one machine run."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        self._machine: Optional["Machine"] = None
        # Open measurements, closed by the matching completion event.
        self._miss_open: dict[int, int] = {}          # req_id -> issue time
        self._defer_open: dict[int, int] = {}         # req_id -> defer time
        self._nack_retries: TallyCounter = TallyCounter()  # req_id -> nacks
        self._marker_open: dict[int, list[int]] = {}  # req_id -> send times
        self._probe_open: dict[tuple, list[int]] = {}  # (line,ts,origin)
        # The hook-path instruments, resolved once: per-event
        # get-or-create registry lookups were visible in profiles.
        reg = self.registry
        self._requests_issued = reg.counter("requests.issued")
        self._defer_count = reg.counter("defer.count")
        self._defer_depth_hist = reg.histogram("defer.queue_depth",
                                               DEPTH_BUCKETS)
        self._defer_depth_gauge = reg.gauge("defer.queue_depth")
        self._defer_serviced = reg.counter("defer.serviced")
        self._defer_latency = reg.histogram("defer.latency", LATENCY_BUCKETS)
        self._nack_received = reg.counter("nack.received")
        self._miss_latency = reg.histogram("miss.latency", LATENCY_BUCKETS)
        self._nack_retries_hist = reg.histogram("nack.retries_per_request",
                                                RETRY_BUCKETS)
        self._marker_sent = reg.counter("marker.sent")
        self._marker_received = reg.counter("marker.received")
        self._marker_latency = reg.histogram("marker.latency",
                                             LATENCY_BUCKETS)
        self._probe_sent = reg.counter("probe.sent")
        self._probe_received = reg.counter("probe.received")
        self._probe_latency = reg.histogram("probe.latency", LATENCY_BUCKETS)
        self._restart_count = reg.counter("restart.count")
        self._restart_backoff = reg.histogram("restart.backoff",
                                              LATENCY_BUCKETS)
        self._restart_streak = reg.histogram("restart.streak", RETRY_BUCKETS)

    def attach(self, machine: "Machine") -> "MachineMetrics":
        """Point every controller and processor at this collector.
        Call before ``run_workload``."""
        self._machine = machine
        for controller in machine.controllers:
            controller.obs = self
        for processor in machine.processors:
            processor.obs = self
        return self

    # ------------------------------------------------------------------
    # Controller hooks
    # ------------------------------------------------------------------
    def on_request_issued(self, controller: "CacheController",
                          request: "BusRequest") -> None:
        """A miss left for the bus (first issue; NACK reissues keep the
        original start so miss.latency covers the whole retry loop)."""
        self._requests_issued.inc()
        self._miss_open.setdefault(request.req_id, controller.sim.now)

    def on_defer(self, controller: "CacheController",
                 request: "BusRequest") -> None:
        depth = len(controller.deferred)
        self._defer_count.inc()
        self._defer_depth_hist.observe(depth)
        self._defer_depth_gauge.set(depth)
        self._defer_open.setdefault(request.req_id, controller.sim.now)

    def on_obligation_serviced(self, controller: "CacheController",
                               request: "BusRequest") -> None:
        started = self._defer_open.pop(request.req_id, None)
        if started is not None:
            self._defer_serviced.inc()
            self._defer_latency.observe(controller.sim.now - started)

    def on_nack(self, controller: "CacheController",
                request: "BusRequest") -> None:
        """Our own request came back refused (requester side)."""
        self._nack_received.inc()
        self._nack_retries[request.req_id] += 1

    def on_data(self, controller: "CacheController",
                request: "BusRequest") -> None:
        """The fill arrived: close the miss and its retry tally."""
        issued = self._miss_open.pop(request.req_id, None)
        if issued is not None:
            self._miss_latency.observe(controller.sim.now - issued)
        self._nack_retries_hist.observe(
            self._nack_retries.pop(request.req_id, 0))

    def on_marker_sent(self, controller: "CacheController",
                       marker: "Marker") -> None:
        self._marker_sent.inc()
        self._marker_open.setdefault(marker.req_id, []) \
            .append(controller.sim.now)

    def on_marker(self, controller: "CacheController",
                  marker: "Marker") -> None:
        sends = self._marker_open.get(marker.req_id)
        if sends:
            self._marker_received.inc()
            self._marker_latency.observe(controller.sim.now - sends.pop(0))

    def on_probe_sent(self, controller: "CacheController",
                      probe: "Probe") -> None:
        self._probe_sent.inc()
        self._probe_open.setdefault((probe.line, probe.ts, probe.origin),
                                    []).append(controller.sim.now)

    def on_probe(self, controller: "CacheController",
                 probe: "Probe") -> None:
        sends = self._probe_open.get((probe.line, probe.ts, probe.origin))
        if sends:
            self._probe_received.inc()
            self._probe_latency.observe(controller.sim.now - sends.pop(0))

    # ------------------------------------------------------------------
    # Processor hook
    # ------------------------------------------------------------------
    def on_restart(self, processor: "Processor", reason: str,
                   backoff: int, streak: int) -> None:
        """A speculation died and its restart was paced ``backoff``
        cycles out after ``streak`` consecutive losses."""
        self._restart_count.inc()
        self._restart_backoff.observe(backoff)
        self._restart_streak.observe(streak)

    # ------------------------------------------------------------------
    # Scheduler hooks (repro.sched)
    # ------------------------------------------------------------------
    # Resolved lazily (get-or-create at event time) rather than in
    # __init__: with the scheduler off nothing fires, so scheduler-off
    # metrics payloads carry no sched.* instruments at all.
    def on_sched_preempt(self, slot: int, thread: int, ran: int,
                         aborted: bool) -> None:
        """A timer interrupt preempted ``thread`` after ``ran`` on-CPU
        cycles; ``aborted`` when it was speculating (context-switch
        abort, the paper's stress mode)."""
        self.registry.counter("sched.preemptions").inc()
        self.registry.histogram("sched.timeslice",
                                LATENCY_BUCKETS).observe(ran)
        if aborted:
            self.registry.counter("sched.context_switch_aborts").inc()

    def on_sched_migrate(self, thread: int, from_slot: int,
                         to_slot: int) -> None:
        self.registry.counter("sched.migrations").inc()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def finalize(self, machine: Optional["Machine"] = None) -> dict:
        """Fold in end-of-run state (per-policy telemetry, outcome
        counters) and export the registry as a JSON-able dict."""
        machine = machine or self._machine
        if machine is not None:
            for controller in machine.controllers:
                for key, value in controller.policy.telemetry().items():
                    self.registry.gauge(f"policy.{key}").set(value)
            stats = machine.stats
            # Restart reasons come from the stats aggregate rather than
            # the on_restart hook: a restart delivered to a paused core
            # is recorded there but never paced through the hook.
            for reason, count in stats.reason_totals().items():
                self.registry.counter(f"restart.reason.{reason}").inc(count)
            self.registry.counter("txn.commits").inc(
                stats.total("elisions_committed"))
            self.registry.counter("txn.lock_fallbacks").inc(
                stats.total("lock_fallbacks"))
            self.registry.counter("sim.kernel.events").inc(
                machine.sim.events_fired)
            self.registry.counter("sim.kernel.compactions").inc(
                machine.sim.compactions)
            engine = getattr(machine, "sched_engine", None)
            if engine is not None:
                # Per-thread (not per-CPU) latency attribution: how many
                # cycles each workload thread actually held a CPU slot,
                # and how many it spent descheduled or switching
                # (finish time minus on-CPU time).
                self.registry.gauge("sched.slots").set(engine.slots)
                for thread, oncpu in sorted(engine.oncpu.items()):
                    finish = stats.cpu(thread).finish_time
                    self.registry.gauge(
                        f"sched.thread.t{thread}.oncpu").set(oncpu)
                    self.registry.gauge(
                        f"sched.thread.t{thread}.offcpu").set(
                        max(0, finish - oncpu))
        payload = self.registry.to_dict()
        if machine is not None and machine.controllers:
            payload["meta"] = {
                "policy": machine.controllers[0].policy.name,
                "scheme": machine.config.scheme.value,
            }
        return payload
