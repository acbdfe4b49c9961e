"""Timing-approximate processor core.

One :class:`Processor` drives one thread program -- a generator coroutine
yielding architectural operations (:mod:`repro.cpu.isa`) -- through the
simulated memory system.  The model is in-order and blocking (one
outstanding demand access), with the timing knobs that matter to the
paper's evaluation: L1 hit latency, miss latency through the bus/network,
compute cycles, a misspeculation redirection penalty, and stall
attribution split into lock-variable and non-lock buckets (Figure 11).

Design rules that keep the concurrency semantics honest:

* **Effect points are synchronous.**  The architectural value effect of an
  access happens either at issue (L1 hit) or inside the data-arrival
  event (miss) -- never in a later scheduled event -- so atomic
  read-modify-writes cannot be torn by an interleaved coherence action.
  Generator *resumption* after a miss is a separate zero-delay event.
* **Epoch squashing.**  Misspeculation bumps an epoch counter; callbacks
  captured under an older epoch return without effect, modeling the
  squash of in-flight instructions.
* **Speculative stores** go to the write buffer; commit drains it in one
  event (atomic commit); misspeculation clears it (failure atomicity).
* **Spin-waits park.**  A ``Watch`` op subscribes to the line's next
  invalidation/refill instead of polling, with a value check at
  registration (no missed wakeups) and a slow backup poll as a liveness
  net for corner cases such as fills forced invalid.

Descheduling (Section 4 stability experiments) pauses the core at its
next resumption point; if it was speculating, the speculation is
discarded first -- leaving the lock free for other threads, which is
exactly TLR's non-blocking property.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.coherence.controller import CacheController
from repro.coherence.memory import ValueStore
from repro.coherence.states import Line
from repro.cpu import isa
from repro.cpu.checkpoint import RestartSignal
from repro.cpu.predictor import RmwPredictor
from repro.cpu.writebuffer import WriteBuffer, WriteBufferOverflow
from repro.harness.config import SystemConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import CpuStats
from repro.sim.taps import MachineTaps
from repro.sle.elision import SpeculationManager

_PENDING = object()
_WATCH_BACKUP_POLL = 500  # cycles between liveness-net polls of a Watch


class Processor:
    """One simulated core executing one thread program."""

    def __init__(self, cpu_id: int, sim: Simulator,
                 controller: CacheController, store: ValueStore,
                 config: SystemConfig, stats: CpuStats, taps: MachineTaps):
        self.cpu_id = cpu_id
        self.sim = sim
        self.controller = controller
        self.store = store
        self.config = config
        self.stats = stats
        # The machine's observation seam (repro.sim.taps).
        self.taps = taps
        self.write_buffer = WriteBuffer(config.spec.write_buffer_entries)
        self.rmw = RmwPredictor(entries=config.spec.rmw_predictor_entries,
                                enabled=config.spec.rmw_predictor_enabled)
        self.spec = SpeculationManager(self, config, stats)
        controller.on_misspeculation = self._on_misspeculation
        if self.spec.tlr:  # plain SLE keeps the controller's no-op
            controller.on_conflict_ts = self.spec.authority.observe_conflict
        self.gen: Optional[Generator] = None
        self.done = False
        self.epoch = 0
        self.cs_depth = 0
        self._cs_loads: dict[int, str] = {}
        self._last_ll: tuple[int, int] = (-1, 0)
        self._debt = 0
        self._paused = False
        self._stashed: Optional[tuple[Any, Optional[BaseException]]] = None
        self._restart_pending: Optional[RestartSignal] = None
        self._pending_timer = None
        self.misspec_penalty = config.spec.misspec_penalty
        self._restart_streak = 0
        # Optional completion callback (the repro.sched engine refills a
        # freed CPU slot immediately instead of waiting for its next
        # timer tick); None unless a scheduler is attached.
        self.on_finish = None
        # Hot-path constants and precomputed event labels (f-string
        # construction showed up in profiles at one label per event).
        self._hit_latency = config.cache.hit_latency
        self._read_esc_threshold = config.spec.read_escalation_threshold
        self._labels: dict[str, str] = {}
        self._label_compute = f"cpu{cpu_id}-compute"
        self._label_restart = f"cpu{cpu_id}-restart"
        self._label_spinpoll = f"cpu{cpu_id}-spinpoll"
        # Type-keyed op dispatch instead of an isinstance chain.
        self._dispatch = {
            isa.Read: self._do_read,
            isa.Write: self._do_write,
            isa.Compute: self._do_compute,
            isa.LoadLinked: self._do_ll,
            isa.StoreConditional: self._do_sc,
            isa.AtomicSwap: self._do_swap,
            isa.AtomicCas: self._do_cas,
            isa.Watch: self._do_watch,
        }

    def __repr__(self) -> str:
        state = "done" if self.done else (
            "paused" if self._paused else "running")
        return f"<Processor cpu{self.cpu_id} {state}>"

    # ------------------------------------------------------------------
    # Program control
    # ------------------------------------------------------------------
    def run_program(self, gen: Generator, start_delay: int = 0) -> None:
        """Attach the thread program and schedule its first step."""
        self.gen = gen
        self.sim.add_actor(self)
        self.sim.schedule(start_delay, self._advance, None,
                          label=f"cpu{self.cpu_id}-start")

    def deschedule(self) -> None:
        """Operating-system deschedule: pause at the next step boundary.

        If the core is speculating, the speculation is discarded first
        (updates thrown away, lock left free) -- TLR's restartable
        critical sections.  Under BASE a held lock simply stays held.
        """
        self._paused = True
        if self.spec.active:
            self.controller.abort_speculation()
            self._on_misspeculation("deschedule", 0)

    def terminate(self) -> None:
        """Operating-system thread kill (Section 4's restartable
        critical sections).

        If the thread was speculating, the speculation is discarded --
        no partial update ever reached memory, the lock was never held,
        and other threads are unaffected.  Under BASE a thread killed
        inside a critical section leaves the lock held forever; the
        caller can observe that difference (it is the paper's stability
        argument).
        """
        if self.done:
            return
        if self.spec.active:
            self.controller.abort_speculation()
            self.epoch += 1
            self.write_buffer.clear()
            self.spec.on_misspeculation("terminated", resource=True)
        self.epoch += 1
        if self._pending_timer is not None:
            self.sim.cancel(self._pending_timer)
            self._pending_timer = None
        if self.gen is not None:
            self.gen.close()
        self._finish()

    def reschedule(self) -> None:
        """Resume a descheduled core."""
        if not self._paused:
            return
        self._paused = False
        if self._restart_pending is not None:
            signal, self._restart_pending = self._restart_pending, None
            self.sim.schedule(0, self._advance, None, signal,
                              label=f"cpu{self.cpu_id}-resume-restart")
        elif self._stashed is not None:
            (value, throw), self._stashed = self._stashed, None
            self.sim.schedule(0, self._advance, value, throw,
                              label=f"cpu{self.cpu_id}-resume")

    # ------------------------------------------------------------------
    # Critical-section bookkeeping (driven by the runtime's lock code)
    # ------------------------------------------------------------------
    def enter_cs(self) -> None:
        self.cs_depth += 1
        if self.cs_depth == 1:
            self.stats.critical_sections += 1

    def exit_cs(self) -> None:
        if self.cs_depth > 1:
            self.cs_depth -= 1
            return
        self.cs_depth = 0
        cs_loads = self._cs_loads
        if cs_loads:
            for pc in cs_loads.values():
                self.rmw.train_not_rmw(pc)
            cs_loads.clear()

    @property
    def in_cs(self) -> bool:
        return self.cs_depth > 0

    # ------------------------------------------------------------------
    # The stepping loop
    # ------------------------------------------------------------------
    def _advance(self, value: Any,
                 throw: Optional[BaseException] = None) -> None:
        if self.done or self.gen is None:
            return
        if self._paused:
            self._stashed = (value, throw)
            return
        while True:
            try:
                if throw is not None:
                    op = self.gen.throw(throw)
                    throw = None
                else:
                    op = self.gen.send(value)
            except StopIteration:
                self._finish()
                return
            result = self._execute(op)
            if result is _PENDING:
                return
            value = result
            if self._debt >= 8:
                debt, self._debt = self._debt, 0
                self._resume_later(value, delay=debt, label="debt")
                return

    def _finish(self) -> None:
        self.done = True
        self.stats.finish_time = self.sim.now
        self.gen = None
        if self.on_finish is not None:
            self.on_finish(self)

    # ------------------------------------------------------------------
    # Op dispatch
    # ------------------------------------------------------------------
    def _execute(self, op: isa.Op) -> Any:
        handler = self._dispatch.get(type(op))
        if handler is None:
            raise TypeError(f"unknown operation {op!r}")
        return handler(op)

    # -- helpers --------------------------------------------------------
    def _arch_read(self, addr: int) -> int:
        if not self.spec.active:
            return self.store.read(addr)
        buffered = self.write_buffer.read(addr)
        if buffered is not None:
            return buffered  # read-your-own-write: not an observation
        value = self.store.read(addr)
        if self.taps.arch_read:
            self.taps.arch_read.emit(self, addr, value)
        return value

    def _charge_wait(self, issue_time: int, is_lock: bool) -> None:
        self.stats.charge_stall(self.sim.now - issue_time, is_lock)

    def _resume_later(self, value: Any, delay: int = 0,
                      label: str = "resume") -> None:
        """Resume the coroutine in a fresh event (used from inside
        coherence callbacks to avoid deep re-entrancy).  The resumption
        is epoch-guarded: if a misspeculation squashes the pipeline
        before the event fires, the stale resume is dropped instead of
        injecting its value into the restarted program."""
        cached = self._labels.get(label)
        if cached is None:
            cached = self._labels[label] = f"cpu{self.cpu_id}-{label}"
        self.sim.schedule(delay, self._epoch_advance, self.epoch, value,
                          label=cached)

    def _epoch_advance(self, epoch: int, value: Any) -> None:
        """Scheduled resume body (a bound method, not a per-call closure;
        this fires once per completed op and showed up in profiles)."""
        if self.epoch != epoch:
            return
        self._advance(value)

    def _note_cs_load(self, op) -> None:
        if self.in_cs and op.pc and not op.is_lock:
            self._cs_loads[op.addr] = op.pc

    def _train_store(self, addr: int) -> None:
        pc = self._cs_loads.pop(addr, None)
        if pc is not None:
            self.rmw.train_rmw(pc)

    def _want_exclusive(self, op, line: int) -> bool:
        """Read-exclusive prediction (Section 3.1.2)."""
        if op.is_lock:
            return False  # SLE never requests exclusive lock permissions
        # ``.get``: a missing key on a Counter costs a __missing__ call.
        if (self.spec.active
                and self.controller.upgrade_violations.get(line, 0)
                >= self._read_esc_threshold):
            return True
        return self.in_cs and self.rmw.predict_exclusive(op.pc)

    # Every memory op looks its line up once at issue.  A hit does its
    # effect there and then; a miss hands that lookup to ``_miss`` with
    # the op's fill, which runs in the fill's event on the line the
    # controller installed (or found, for an upgrade).  Every lookup
    # bumps the line's LRU stamp; one bump leaves it its set's most
    # recent line just as more did, and a victim-cache promotion happens
    # in the first lookup, so replacement is unchanged.  The read, LL
    # and store hit legs are written out in place: they are most of a
    # run's ops.

    def _miss(self, op, line: int, cached: Optional[Line],
              need_writable: bool, fill: Callable[[Line], Any]) -> Any:
        """Issue ``op``'s miss; at the fill, run ``fill`` on the filled
        line and resume the program with its value.  ``cached`` is the
        op's lookup."""
        issue_time = self.sim.now
        epoch = self.epoch

        def effect(filled: Line) -> None:
            if self.epoch != epoch:
                return
            value = fill(filled)
            if self.epoch != epoch:
                return  # the fill fell back, squashing its op
            self._charge_wait(issue_time, op.is_lock)
            self._resume_later(value)

        self.controller.miss(line, cached, need_writable, effect,
                             op.is_lock, lambda: self.epoch == epoch)
        return _PENDING

    def _store_effect(self, addr: int, value: int, line: int,
                      cached: Line) -> bool:
        """A store's architectural effect: buffered while speculating,
        written through otherwise.  A value the write buffer cannot hold
        ends the speculation (Section 3.3): the lock is taken for real,
        the op is squashed, and this returns False.  ``cached`` is the
        line: a hit's lookup or a fill's line."""
        if not self.spec.active:
            self.store.write(addr, value)
            if self.taps.plain_write:
                self.taps.plain_write.emit(self, addr, value)
            return True
        try:
            self.write_buffer.write(addr, value)
        except WriteBufferOverflow:
            self.resource_fallback("wb-overflow")
            return False
        controller = self.controller
        if controller.speculating:
            cached.accessed = True
            cached.spec_written = True
            controller._spec_touched[line] = cached
        return True

    # -- loads ----------------------------------------------------------
    def _do_read(self, op: isa.Read) -> Any:
        self.stats.loads += 1
        self.stats.ops_completed += 1
        if self.spec.active:
            buffered = self.write_buffer.read(op.addr)
            if buffered is not None:
                self._debt += self._hit_latency
                return buffered
        line = isa.line_of(op.addr)
        want_x = self._want_exclusive(op, line)
        # A read the predictor fetched exclusive belongs to the write set:
        # letting another reader demote the line mid-transaction would
        # force the predicted store into an upgrade (and, if we are also
        # deferring that reader's chain, a self-deadlock).
        as_written = want_x and self.spec.active
        controller = self.controller
        cached = controller.cache.lookup(line)
        if cached is not None and cached.state.valid and (
                not want_x or cached.state.writable):
            self.stats.l1_hits += 1
            value = self._arch_read(op.addr)
            if controller.speculating:
                cached.accessed = True
                if as_written:
                    cached.spec_written = True
                controller._spec_touched[line] = cached
            if self.cs_depth and op.pc and not op.is_lock:
                self._cs_loads[op.addr] = op.pc
            self._debt += self._hit_latency
            return value

        def fill(filled: Line) -> int:
            value = self._arch_read(op.addr)
            controller.mark_accessed(filled, written=as_written)
            self._note_cs_load(op)
            return value

        return self._miss(op, line, cached, want_x, fill)

    # -- stores ---------------------------------------------------------
    def _do_write(self, op: isa.Write) -> Any:
        self.stats.stores += 1
        self.stats.ops_completed += 1
        spec = self.spec
        if spec.active:  # only an open checkpoint absorbs a release
            epoch_before = self.epoch
            if spec.absorbs_release(op):
                self._debt += self._hit_latency
                return None
            if self.epoch != epoch_before:
                # Absorption killed the speculation (non-silent store
                # pair): this store belongs to the squashed transaction
                # and the restart is already scheduled.
                return _PENDING
        line = isa.line_of(op.addr)
        cached = self.controller.cache.lookup(line)
        if cached is not None and cached.state.writable:
            self.stats.l1_hits += 1
            if not self._store_effect(op.addr, op.value, line, cached):
                return _PENDING
            pc = self._cs_loads.pop(op.addr, None)
            if pc is not None:
                self.rmw.train_rmw(pc)
            self._debt += self._hit_latency
            return None

        def fill(filled: Line) -> None:
            if self._store_effect(op.addr, op.value, line, filled):
                self._train_store(op.addr)

        return self._miss(op, line, cached, True, fill)

    # -- compute ----------------------------------------------------
    def _do_compute(self, op: isa.Compute) -> Any:
        self.stats.compute_cycles += op.cycles
        self.stats.ops_completed += 1
        cycles = max(1, op.cycles + self._debt)
        self._debt = 0
        self._pending_timer = self.sim.schedule(
            cycles, self._compute_resume, self.epoch,
            label=self._label_compute)
        return _PENDING

    def _compute_resume(self, epoch: int) -> None:
        self._pending_timer = None
        if self.epoch != epoch:
            return
        self._advance(None)

    # -- LL/SC ------------------------------------------------------
    def _do_ll(self, op: isa.LoadLinked) -> Any:
        self.stats.loads += 1
        self.stats.ops_completed += 1
        line = isa.line_of(op.addr)
        controller = self.controller
        cached = controller.cache.lookup(line)
        if cached is not None and cached.state.valid:
            self.stats.l1_hits += 1
            value = self._arch_read(op.addr)
            controller._link = line  # set_link on a valid line
            self._last_ll = (op.addr, value)
            if controller.speculating:
                cached.accessed = True
                controller._spec_touched[line] = cached
            self._debt += self._hit_latency
            return value

        def fill(filled: Line) -> int:
            value = self._arch_read(op.addr)
            controller.set_link(filled)
            self._last_ll = (op.addr, value)
            if self.spec.active:
                controller.mark_accessed(filled, written=False)
            return value

        return self._miss(op, line, cached, False, fill)

    def _do_sc(self, op: isa.StoreConditional) -> Any:
        self.stats.stores += 1
        self.stats.ops_completed += 1
        line = isa.line_of(op.addr)
        controller = self.controller
        if not controller.link_valid(line):
            self._debt += self._hit_latency
            return False
        ll_addr, ll_value = self._last_ll
        if ll_addr == op.addr and self.spec.try_elide(
                op, free_value=ll_value, cs_depth=self.cs_depth):
            # Elided: the lock line stays shared; mark it accessed so any
            # external write to the lock kills the speculation.  Events
            # may have run since the LL's lookup, so look it up again.
            if controller.speculating:
                controller.mark_accessed(controller.cache.lookup(line),
                                         written=False)
            self._debt += self._hit_latency
            return True
        cached = controller.cache.lookup(line)
        if cached is not None and cached.state.writable:
            self.stats.l1_hits += 1
            if not self._store_effect(op.addr, op.value, line, cached):
                return _PENDING
            self._debt += self._hit_latency
            return True

        def fill(filled: Line) -> bool:
            # An invalidation ordered while the miss was in flight
            # cleared the link: the SC fails.
            if not controller.link_valid(line):
                return False
            self._store_effect(op.addr, op.value, line, filled)
            return True

        return self._miss(op, line, cached, True, fill)

    # -- atomics ------------------------------------------------------
    def _do_swap(self, op: isa.AtomicSwap) -> Any:
        return self._do_atomic(op, swap=True)

    def _do_cas(self, op: isa.AtomicCas) -> Any:
        return self._do_atomic(op, swap=False)

    def _do_atomic(self, op, swap: bool) -> Any:
        self.stats.stores += 1
        self.stats.ops_completed += 1
        line = isa.line_of(op.addr)
        cached = self.controller.cache.lookup(line)
        if cached is not None and cached.state.writable:
            self.stats.l1_hits += 1
            old = self._atomic_effect(op, line, swap, cached)
            if old is not _PENDING:
                self._debt += self._hit_latency
            return old
        return self._miss(op, line, cached, True,
                          lambda filled: self._atomic_effect(op, line, swap,
                                                             filled))

    def _atomic_effect(self, op, line: int, swap: bool,
                       cached: Line) -> Any:
        """Swap/CAS architectural effect: the old value, or _PENDING if
        the store fell back.  ``cached`` is the hit's or the fill's
        line."""
        old = self._arch_read(op.addr)
        new = op.value if swap else (
            op.new if old == op.expect else None)
        if new is not None:
            if not self._store_effect(op.addr, new, line, cached):
                return _PENDING
        elif self.spec.active:
            self.controller.mark_accessed(cached, written=True)
        return old

    # -- spin-wait ----------------------------------------------------
    def _do_watch(self, op: isa.Watch) -> Any:
        self.stats.ops_completed += 1
        line = isa.line_of(op.addr)
        issue_time = self.sim.now
        epoch = self.epoch
        expect = getattr(op, "expect", None)
        woken = False

        def wake() -> None:
            nonlocal woken
            if woken or self.epoch != epoch or self.done:
                return
            woken = True
            waited = self.sim.now - issue_time
            self.stats.spin_cycles += waited
            self.stats.charge_stall(waited, is_lock=True)
            self._resume_later(None)

        def backup_poll() -> None:
            if woken or self.epoch != epoch or self.done:
                return
            if expect is None or self.store.read(op.addr) != expect:
                wake()
            else:
                self.sim.schedule(_WATCH_BACKUP_POLL, backup_poll,
                                  label=self._label_spinpoll)

        if expect is not None and self.store.read(op.addr) != expect:
            # The value already changed between the read and the watch.
            self._debt += 1
            return None
        self.controller.watch(line, wake)
        self.sim.schedule(_WATCH_BACKUP_POLL, backup_poll,
                          label=self._label_spinpoll)
        return _PENDING

    # ------------------------------------------------------------------
    # Transaction commit / abort
    # ------------------------------------------------------------------
    def commit_transaction(self) -> None:
        """Atomic commit of the current lock-free transaction."""
        taps = self.taps
        if taps.txn_commit:
            taps.txn_commit.emit(self)
        if taps.write_set:
            taps.write_set.emit(self, self.write_buffer.snapshot())
        self.write_buffer.drain(self.store)
        self.controller.commit_speculation()
        self.spec.on_commit()
        self.controller.policy.on_commit()
        self._restart_streak = 0

    def resource_fallback(self, reason: str) -> None:
        """Speculation cannot continue (buffer/cache limits, non-undoable
        operation): abort and arrange a real lock acquisition."""
        if not self.spec.active:
            return
        self.stats.resource_fallbacks += 1
        self.controller.abort_speculation()
        self._on_misspeculation(reason, 0)

    def _on_misspeculation(self, reason: str, line_addr: int,
                           aborter: int = -1) -> None:
        """Controller (or self) reports the speculation died; a
        conflict loss names the ``aborter`` cpu, every other abort -1."""
        taps = self.taps
        if taps.misspec:
            taps.misspec.emit(self, reason, line_addr, aborter)
        if not self.spec.active:
            return
        self.epoch += 1
        self.write_buffer.clear()
        self._cs_loads.clear()
        resource = reason in ("capacity", "wb-overflow", "non-silent-pair",
                              "deschedule")
        depth = self.spec.on_misspeculation(reason, resource)
        self.stats.restarts += 1
        self.stats.restart_reasons[reason] += 1
        self.cs_depth = min(self.cs_depth, max(0, depth))
        if self._pending_timer is not None:
            self.sim.cancel(self._pending_timer)
            self._pending_timer = None
        signal = RestartSignal(depth, reason)
        if self._paused:
            self._restart_pending = signal
            return
        # Restart pacing is the contention policy's call; the default
        # (backoff_for -> None) is the paper's behaviour -- repeated
        # conflict losses back off linearly (capped): an immediately
        # re-issued request would re-enter the same chain mid-flight and
        # lose again, and the paper's "restart or forced to wait"
        # resolution expects losers to wait out the winner.
        self._restart_streak += 1
        policy = self.controller.policy
        policy.on_restart(reason, self._restart_streak)
        backoff = policy.backoff_for(self._restart_streak)
        if backoff is None:
            step = self.config.spec.restart_backoff_step
            backoff = self.misspec_penalty + step * min(
                self._restart_streak - 1, 15)
        if taps.restart:
            taps.restart.emit(self, reason, backoff, self._restart_streak)
        self.sim.schedule(backoff, self._advance, None, signal,
                          label=self._label_restart)
