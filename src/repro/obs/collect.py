"""MachineMetrics: the collector the simulated machine publishes into.

:meth:`MachineMetrics.attach` subscribes one handler per consumed kind
on the machine's observation seam (:mod:`repro.sim.taps`); an emit
point nobody subscribes to costs its component one truth test.

Sampling is **event-driven**, never timer-driven: a periodic
self-rescheduling sampler event would keep the kernel's queue non-empty
and turn a genuine deadlock (queue drained with incomplete actors) into
a max-cycles livelock diagnostic.  Deferral-queue depth is therefore
observed at each push -- every change of the queue passes through a
hook anyway -- by the machine's
:class:`~repro.obs.profile.DeferralTally`, which it shares with the lock
profiler and which pairs each push with its service.  A miss's latency
is read at its fill, off the MSHR that has held its first-issue time
since the miss left for the bus.  Counts the machine already keeps --
in :class:`~repro.sim.stats.CpuStats` (probes and markers sent, NACKs
received, requests deferred) and in the MSHR files (requests issued) --
are read in :meth:`MachineMetrics.finalize`, not counted again per
event.

The collector only *reads* simulation state; it schedules nothing and
mutates nothing, so attaching it cannot change a run's fingerprint
(pinned by the golden-fingerprint tests, which run with metrics on).
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.metrics import (DEPTH_BUCKETS, LATENCY_BUCKETS, RETRY_BUCKETS,
                               MetricsRegistry)
from repro.obs.profile import DeferralTally, LockProfiler

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.machine import Machine


class MachineMetrics:
    """Collects conflict/latency telemetry from one machine run."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        self._machine: Optional["Machine"] = None
        self._deferrals: Optional[DeferralTally] = None
        self._nack_retries: TallyCounter = TallyCounter()  # req_id -> nacks
        # Fills with no NACK before them: each is a 0 in
        # nack.retries_per_request, observed at once in finalize.
        self._unrefused_fills = 0
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
        self._deferrals = DeferralTally.of(machine)
        subscribe = machine.taps.subscribe
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
    def on_nack(self, time, cpu, kind, args, obj) -> None:
        """Our own request came back refused (requester side)."""
        self._nack_retries[args[0].req_id] += 1

    def on_data(self, time, cpu, kind, args, obj) -> None:
        """The fill arrived: close the miss and its retry tally.  The
        MSHR is still allocated and kept its first issue time through
        any NACK reissues, so miss.latency covers the whole retry
        loop."""
        request = args[0]
        req_id = request.req_id
        self._miss_latency.observe(
            time - obj.mshrs.get(request.line).issue_time)
        retries = self._nack_retries.pop(req_id, 0) \
            if self._nack_retries else 0
        if retries:
            self._nack_retries_hist.observe(retries)
        else:
            self._unrefused_fills += 1

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
        counters) and export the registry as a JSON-able dict.

        The end-of-run counters are set to the values read, not added
        to, so a second call returns the same payload."""
        machine = machine or self._machine
        if self._unrefused_fills:
            self._nack_retries_hist.observe_many(0, self._unrefused_fills)
            self._unrefused_fills = 0
        deferrals = self._deferrals
        if deferrals is not None:
            # Copied, not added: a second call leaves the same values.
            self._defer_depth_hist.tally = dict(deferrals.depths)
            self._defer_depth_gauge.value = deferrals.last_depth
            self._defer_depth_gauge.max = max(deferrals.depths, default=0)
            self._defer_latency.tally = dict(deferrals.latencies)
        counter = self.registry.counter
        counter("defer.serviced").value = self._defer_latency.count
        if machine is not None:
            self._requests_issued.value = sum(
                controller.mshrs.allocated
                for controller in machine.controllers)
            for controller in machine.controllers:
                for key, value in controller.policy.telemetry().items():
                    self.registry.gauge(f"policy.{key}").set(value)
            stats = machine.stats
            # Restart reasons come from the stats aggregate rather than
            # the on_restart hook: a restart delivered to a paused core
            # is recorded there but never paced through the hook.
            for reason, count in stats.reason_totals().items():
                counter(f"restart.reason.{reason}").value = count
            # Each of these stats is incremented beside the emit point
            # it would otherwise be counted at.
            for name, stat in (("probe.sent", "probes_sent"),
                               ("marker.sent", "markers_sent"),
                               ("nack.received", "nacks_received"),
                               ("defer.count", "requests_deferred")):
                counter(name).value = stats.total(stat)
            counter("txn.commits").value = stats.total("elisions_committed")
            counter("txn.lock_fallbacks").value = stats.total(
                "lock_fallbacks")
            counter("sim.kernel.events").value = machine.sim.events_fired
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


def default_observers(machine: "Machine") -> Callable[[], dict]:
    """Attach the default observers -- :class:`MachineMetrics` and the
    :class:`~repro.obs.profile.LockProfiler` -- to ``machine`` and
    return the function that exports them after the run.

    The export is the metrics payload, with the aggregate profile
    families published into its registry (so they reach the
    OpenMetrics export) and the full per-lock profile under
    ``"profile"``.  Neither moves ``result_fingerprint``: metrics are
    telemetry about a run, not part of its outcome.
    """
    collector = MachineMetrics().attach(machine)
    profiler = LockProfiler().attach(machine)

    def export() -> dict:
        profile = profiler.snapshot()
        profiler.publish(collector.registry, profile)
        metrics = collector.finalize(machine)
        metrics["profile"] = profile
        return metrics

    return export
