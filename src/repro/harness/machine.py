"""Machine builder: wires the simulated multiprocessor together.

One :class:`Machine` is one simulated run: a fresh kernel, bus, memory
controller, value store, and per-CPU cache controllers and cores, built
from a :class:`SystemConfig`.  The lock implementation handed to thread
environments follows the configured scheme -- test&test&set for
BASE/SLE/TLR (same "executable", different hardware behaviour, as in the
paper) or MCS queue locks.
"""

from __future__ import annotations

from typing import Optional

from repro.coherence.bus import Bus
from repro.coherence.directory_net import DirectoryInterconnect
from repro.coherence.controller import CacheController
from repro.coherence.datanet import DataNetwork
from repro.coherence.memory import MemoryController, ValueStore
from repro.cpu.processor import Processor
from repro.harness.config import SyncScheme, SystemConfig
from repro.runtime.env import ThreadEnv
from repro.runtime.program import ValidationError, Workload
from repro.sim.kernel import Simulator
from repro.sim.rng import LatencyPerturber, RandomStreams
from repro.sim.stats import SimStats
from repro.sim.taps import MachineTaps
from repro.sync.locks import TestAndTestAndSetLock
from repro.sync.mcs import McsLock, QnodeAllocator
from repro.workloads.common import AddressSpace


class Machine:
    """A fully-wired simulated multiprocessor."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.streams = RandomStreams(config.seed)
        self.stats = SimStats()
        # The one observation seam (repro.sim.taps), shared by everything.
        self.taps = MachineTaps()
        self.sim = Simulator(max_cycles=config.max_cycles, taps=self.taps)
        if config.schedule_chaos > 0:
            # Schedule-exploration mode: perturb same-cycle event order
            # with a seeded random priority (see Simulator.set_choice_hook).
            chaos_rng = self.streams.stream("choice")
            chaos = config.schedule_chaos
            self.sim.set_choice_hook(lambda: chaos_rng.randint(0, chaos))
        perturber = LatencyPerturber(self.streams.stream("latency"),
                                     config.latency_jitter)
        if config.protocol == "directory":
            self.bus = DirectoryInterconnect(self.sim, config.directory,
                                             self.stats, perturber,
                                             self.taps)
        else:
            self.bus = Bus(self.sim, config.bus, self.stats, self.taps)
        self.datanet = DataNetwork(self.sim, config.memory, self.stats,
                                   perturber)
        self.memory = MemoryController(
            self.sim, config.memory, self.stats, perturber,
            l2_capacity_lines=config.memory.l2_capacity_lines)
        self.bus.memory = self.memory
        self.bus.deliver_data = self._deliver_data
        self.store = ValueStore()
        self.controllers: list[CacheController] = []
        self.processors: list[Processor] = []
        self.envs: list[ThreadEnv] = []
        # Preemptive-scheduler overlay (repro.sched): constructed inside
        # run_workload when config.sched is enabled, None otherwise.
        self.sched_engine = None
        for cpu_id in range(config.num_cpus):
            controller = CacheController(cpu_id, self.sim, self.bus,
                                         self.datanet, config,
                                         self.stats.cpu(cpu_id), self.taps)
            processor = Processor(cpu_id, self.sim, controller,
                                  self.store, config,
                                  self.stats.cpu(cpu_id), self.taps)
            self.controllers.append(controller)
            self.processors.append(processor)

    def dump_state(self) -> str:
        """A human-readable snapshot of every controller's wait state --
        invaluable when a protocol bug shows up as a drained event queue."""
        lines = [f"t={self.sim.now}"]
        for ctl in self.controllers:
            mshr_bits = []
            for mshr in ctl.mshrs:
                succ = ",".join(repr(s) for s in mshr.successors)
                mshr_bits.append(
                    f"{mshr.request!r} ordered={mshr.ordered} "
                    f"pass={mshr.pass_through} succ=[{succ}]")
            chains = {hex(k): (v.upstream, v.pending_probes)
                      for k, v in ctl.chains.items()}
            lines.append(
                f"cpu{ctl.cpu_id}: spec={ctl.speculating} ts={ctl.current_ts} "
                f"deferred={[repr(e.request) for e in ctl.deferred._entries]} "
                f"mshrs=[{'; '.join(mshr_bits)}] chains={chains}")
        return "\n".join(lines)

    def _deliver_data(self, request, from_node: int) -> None:
        target = self.controllers[request.requester]
        self.datanet.send(target.handle_data, request)

    # ------------------------------------------------------------------
    # Running workloads
    # ------------------------------------------------------------------
    def _lock_api(self, space: Optional[AddressSpace]):
        if self.config.scheme is SyncScheme.MCS:
            if space is None:
                space = AddressSpace(base_line=1 << 20)
            allocator = QnodeAllocator(space.alloc_line)
            return McsLock(allocator)
        return TestAndTestAndSetLock()

    def run_workload(self, workload: Workload,
                     validate: bool = True) -> SimStats:
        """Execute all of the workload's threads to completion.

        Threads beyond ``num_cpus`` are rejected: every thread keeps a
        hardware context (cache, write buffer, speculation state).  To
        run more threads than *CPUs*, enable ``config.sched`` -- the
        preemptive overlay multiplexes the contexts over
        ``num_cpus // threads_per_cpu`` slots, preempting (and thereby
        aborting the elision of) whoever holds a slot too long.
        """
        if workload.num_threads > self.config.num_cpus:
            raise ValueError(
                f"{workload.num_threads} threads > {self.config.num_cpus} "
                "processors")
        lock_api = self._lock_api(workload.meta.get("space"))
        stagger = self.streams.stream("stagger")
        self.envs.clear()
        for cpu_id, factory in enumerate(workload.threads):
            env = ThreadEnv(self.processors[cpu_id], lock_api,
                            num_cpus=self.config.num_cpus,
                            rng=self.streams.stream(f"thread{cpu_id}"))
            self.envs.append(env)
            self.processors[cpu_id].run_program(
                factory(env), start_delay=stagger.randint(0, 50))
        if self.config.sched.enabled:
            # Lazy import: the overlay is a leaf the pinned hot path
            # (scheduler off, the golden-fingerprint mode) never needs.
            from repro.sched import SchedEngine
            self.sched_engine = SchedEngine(self, workload.num_threads)
            self.sched_engine.start()
        self.sim.run()
        self.stats.total_cycles = max(
            (self.stats.cpu(i).finish_time
             for i in range(workload.num_threads)), default=self.sim.now)
        if validate:
            try:
                workload.check(self.store)
            except AssertionError as exc:
                raise ValidationError(
                    f"workload {workload.name!r} failed functional "
                    f"validation under {self.config.scheme.value}: {exc}"
                ) from exc
        return self.stats
