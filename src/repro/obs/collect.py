"""MachineMetrics: the collector the simulated machine publishes into.

:meth:`MachineMetrics.attach` subscribes one handler per consumed kind
on the machine's observation seam (:mod:`repro.sim.taps`); an emit
point nobody subscribes to costs its component one truth test.

Sampling is **event-driven**, never timer-driven: a periodic
self-rescheduling sampler event would keep the kernel's queue non-empty
and turn a genuine deadlock (queue drained with incomplete actors) into
a max-cycles livelock diagnostic.  Deferral-queue depth is therefore
observed at each push -- every change of the queue passes through a
hook anyway -- and latencies are measured by pairing the open/close
events (request->data, defer->service).  Counts the machine already
keeps in :class:`~repro.sim.stats.CpuStats` (probes and markers sent,
NACKs received, requests deferred) are read from it in
:meth:`MachineMetrics.finalize`, not counted again per event.

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
        # The hook-path instruments, resolved once: per-event
        # get-or-create registry lookups were visible in profiles.
        reg = self.registry
        self._requests_issued = reg.counter("requests.issued")
        self._defer_depth_hist = reg.histogram("defer.queue_depth",
                                               DEPTH_BUCKETS)
        self._defer_depth_gauge = reg.gauge("defer.queue_depth")
        self._defer_latency = reg.histogram("defer.latency", LATENCY_BUCKETS)
        self._miss_latency = reg.histogram("miss.latency", LATENCY_BUCKETS)
        self._nack_retries_hist = reg.histogram("nack.retries_per_request",
                                                RETRY_BUCKETS)
        self._restart_count = reg.counter("restart.count")
        self._restart_backoff = reg.histogram("restart.backoff",
                                              LATENCY_BUCKETS)
        self._restart_streak = reg.histogram("restart.streak", RETRY_BUCKETS)

    def attach(self, machine: "Machine") -> "MachineMetrics":
        """Subscribe to the machine's emit points (idempotent).  Call
        before ``run_workload``."""
        self._machine = machine
        subscribe = machine.taps.subscribe
        subscribe(self.on_request_issued, "issued")
        subscribe(self.on_defer, "defer", post=True)
        subscribe(self.on_obligation_serviced, "service")
        subscribe(self.on_nack, "nacked")
        subscribe(self.on_data, "filled")
        subscribe(self.on_restart, "restart")
        subscribe(self.on_sched_preempt, "preempt")
        subscribe(self.on_sched_migrate, "migrate")
        return self

    # ------------------------------------------------------------------
    # Controller points (``args[0]`` is the message, ``obj`` the
    # controller)
    # ------------------------------------------------------------------
    def on_request_issued(self, time, cpu, kind, args, obj) -> None:
        """A miss left for the bus (first issue; NACK reissues keep the
        original start so miss.latency covers the whole retry loop)."""
        self._requests_issued.inc()
        self._miss_open.setdefault(args[0].req_id, time)

    def on_defer(self, time, cpu, kind, args, obj) -> None:
        """After a deferral (the request is in the holder's queue)."""
        depth = len(obj.deferred)
        self._defer_depth_hist.observe(depth)
        self._defer_depth_gauge.set(depth)
        self._defer_open.setdefault(args[0].req_id, time)

    def on_obligation_serviced(self, time, cpu, kind, args, obj) -> None:
        started = self._defer_open.pop(args[0].req_id, None)
        if started is not None:
            self._defer_latency.observe(time - started)

    def on_nack(self, time, cpu, kind, args, obj) -> None:
        """Our own request came back refused (requester side)."""
        self._nack_retries[args[0].req_id] += 1

    def on_data(self, time, cpu, kind, args, obj) -> None:
        """The fill arrived: close the miss and its retry tally."""
        req_id = args[0].req_id
        issued = self._miss_open.pop(req_id, None)
        if issued is not None:
            self._miss_latency.observe(time - issued)
        self._nack_retries_hist.observe(self._nack_retries.pop(req_id, 0))

    # ------------------------------------------------------------------
    # Processor point
    # ------------------------------------------------------------------
    def on_restart(self, time, cpu, kind, args, obj) -> None:
        """A speculation died and its restart was paced ``backoff``
        cycles out after ``streak`` consecutive losses."""
        _reason, backoff, streak = args
        self._restart_count.inc()
        self._restart_backoff.observe(backoff)
        self._restart_streak.observe(streak)

    # ------------------------------------------------------------------
    # Scheduler points (repro.sched)
    # ------------------------------------------------------------------
    # Resolved lazily (get-or-create at event time) rather than in
    # __init__: with the scheduler off nothing fires, so scheduler-off
    # metrics payloads carry no sched.* instruments at all.
    def on_sched_preempt(self, time, slot, kind, args, obj) -> None:
        """A timer interrupt preempted a thread after ``ran`` on-CPU
        cycles; ``aborted`` when it was speculating (context-switch
        abort, the paper's stress mode)."""
        _thread, ran, aborted = args
        self.registry.counter("sched.preemptions").inc()
        self.registry.histogram("sched.timeslice",
                                LATENCY_BUCKETS).observe(ran)
        if aborted:
            self.registry.counter("sched.context_switch_aborts").inc()

    def on_sched_migrate(self, time, slot, kind, args, obj) -> None:
        self.registry.counter("sched.migrations").inc()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def finalize(self, machine: Optional["Machine"] = None) -> dict:
        """Fold in end-of-run state (per-policy telemetry, outcome
        counters) and export the registry as a JSON-able dict."""
        machine = machine or self._machine
        self.registry.counter("defer.serviced").inc(self._defer_latency.count)
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
            # Each of these stats is incremented beside the emit point
            # it would otherwise be counted at.
            for name, stat in (("probe.sent", "probes_sent"),
                               ("marker.sent", "markers_sent"),
                               ("nack.received", "nacks_received"),
                               ("defer.count", "requests_deferred")):
                self.registry.counter(name).inc(stats.total(stat))
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
