"""Always-on invariant monitors for TLR runs.

Where the oracle (:mod:`repro.verify.oracle`) judges a *finished*
execution, the monitors fire **during** one, at the coherence events
where the paper's safety and liveness arguments live:

* **Coherence safety** -- after any event that changes a line's state
  somewhere (data grant, upgrade, invalidation, obligation service), at
  most one cache may hold the line writable (M/E) and at most one may be
  its owner (M/O/E).  With ``strict_exclusive`` (the verify default)
  the full MOESI reading is asserted too: a writable copy implies no
  other valid copy anywhere.  That holds in this simulator because
  snoops apply invalidations synchronously at delivery; a future
  split-transaction invalidation model would need the flag off during
  the in-flight window.

* **Deferral-order sanity** -- every deferral the controllers take must
  be explainable by the *active contention policy's* declared ordering
  contract (:attr:`repro.policies.base.ContentionPolicy.ordering`).
  Under ``"timestamp"`` ordering (the paper's policies) that means:
  either the deferring transaction has the earlier timestamp, or the
  request was untimestamped under the ``defer`` policy, or it is the
  Section 3.2 single-block relaxation (which requires the relaxation
  preconditions to actually hold).  Under ``"none"`` (requester-wins)
  *any* deferral is illegal -- the holder must always surrender.  Under
  ``"priority"`` (backoff-aborts) a deferral is illegal when the
  requester carried the higher accumulated priority (ties broken by
  timestamp).  On top of that the global *waits-for* graph over
  deferral edges must stay acyclic: deferred requesters wait for their
  deferrer's commit, so a cycle is a wait deadlock the conflict order
  should have made impossible.

* **Starvation watchdog** -- the TLR liveness claim is that the
  earliest-timestamp transaction always succeeds.  A periodic event
  tracks the earliest active timestamp and its owner; if the same
  transaction stays earliest for ``patience`` consecutive windows
  without its processor committing anything, the claim is violated
  (livelock / starvation).  Policies without a timestamp contract make
  no per-transaction promise, so for them the watchdog degrades to a
  *global progress* check: if no processor anywhere completes a
  critical section for ``patience`` consecutive windows while
  speculation is live, the machine is livelocked.  (Completed critical
  sections are counted rather than committed elisions so that
  lock-fallback progress -- requester-wins bounding its losses --
  still counts as progress.)

Violations raise :class:`InvariantViolation` (a
:class:`~repro.sim.kernel.SimulationError`) so a failing run stops at
the first bad event with the simulated time attached -- or, with
``fail_fast=False``, are collected in :attr:`MonitorSuite.violations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.coherence.messages import beats
from repro.sim.kernel import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.machine import Machine


class InvariantViolation(SimulationError):
    """An invariant monitor caught the machine in an illegal state."""


@dataclass
class Violation:
    time: int
    kind: str      # "coherence" | "deferral-order" | "waits-cycle" | "starvation"
    cpu: Optional[int]
    line: Optional[int]
    detail: str

    def __str__(self) -> str:
        where = f"cpu{self.cpu}" if self.cpu is not None else "-"
        line = f" line={self.line:#x}" if self.line is not None else ""
        return f"[{self.kind} t={self.time} {where}{line}] {self.detail}"


class MonitorSuite:
    """Invariant monitors subscribed to every cache controller's
    ``line-state``, ``deferred`` and ``loss`` emit points.

    Attach *before* ``run_workload``::

        monitors = MonitorSuite(machine).attach()
        machine.run_workload(workload)
        assert not monitors.violations
    """

    def __init__(self, machine: "Machine", *, fail_fast: bool = True,
                 strict_exclusive: bool = False,
                 watchdog_period: int = 20_000,
                 watchdog_patience: int = 10):
        self.machine = machine
        self.fail_fast = fail_fast
        self.strict_exclusive = strict_exclusive
        self.watchdog_period = watchdog_period
        self.watchdog_patience = watchdog_patience
        self.violations: list[Violation] = []
        self.checks = 0
        self.losses = 0
        self._last_progress: Optional[tuple] = None
        self._stuck_windows = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self) -> "MonitorSuite":
        taps = self.machine.taps
        taps.subscribe(self.on_line_state, "line-state")
        taps.subscribe(self.on_defer, "deferred")
        taps.subscribe(self.on_loss, "loss")
        if self.machine.config.scheme.is_tlr:
            self._schedule_watchdog()
        return self

    def _fail(self, kind: str, cpu: Optional[int], line: Optional[int],
              detail: str) -> None:
        violation = Violation(time=self.machine.sim.now, kind=kind,
                              cpu=cpu, line=line, detail=detail)
        self.violations.append(violation)
        if self.fail_fast:
            raise InvariantViolation(str(violation))

    # ------------------------------------------------------------------
    # Point: line state changed somewhere -- MOESI compatibility
    # ------------------------------------------------------------------
    def on_line_state(self, time, cpu, kind, args, controller) -> None:
        line_addr = args[0]
        self.checks += 1
        writable: list[int] = []
        owners: list[int] = []
        valid: list[int] = []
        for ctl in self.machine.controllers:
            line = ctl.cache.peek(line_addr)
            if line is None or not line.state.valid:
                continue
            valid.append(ctl.cpu_id)
            if line.state.writable:
                writable.append(ctl.cpu_id)
            if line.state.owned:
                owners.append(ctl.cpu_id)
        if len(writable) > 1:
            self._fail("coherence", controller.cpu_id, line_addr,
                       f"{len(writable)} writable (M/E) holders: "
                       f"cpus {writable}")
        if len(owners) > 1:
            self._fail("coherence", controller.cpu_id, line_addr,
                       f"{len(owners)} owners (M/O/E): cpus {owners}")
        if self.strict_exclusive and writable and len(valid) > 1:
            self._fail("coherence", controller.cpu_id, line_addr,
                       f"cpu{writable[0]} holds the line writable while "
                       f"cpus {sorted(set(valid) - set(writable))} still "
                       f"hold valid copies")

    # ------------------------------------------------------------------
    # Point: a controller deferred an incoming request
    # ------------------------------------------------------------------
    def on_defer(self, time, cpu, kind, args, controller) -> None:
        request = args[0]
        self.checks += 1
        self._check_defer_legal(controller, request)
        self._check_waits_for_acyclic(controller, request)

    def _check_defer_legal(self, controller, request) -> None:
        ordering = controller.policy.ordering
        if ordering == "none":
            self._fail("deferral-order", controller.cpu_id, request.line,
                       f"policy {controller.policy.name!r} declares no "
                       "deferral ordering, yet the holder deferred instead "
                       "of surrendering the line")
            return
        if ordering == "priority":
            holder_prio = getattr(controller.policy, "priority", 0)
            if request.prio > holder_prio or (
                    request.prio == holder_prio
                    and beats(request.ts, controller.current_ts)):
                self._fail(
                    "deferral-order", controller.cpu_id, request.line,
                    f"deferred a higher-priority request (prio="
                    f"{request.prio} ts={request.ts} vs holder prio="
                    f"{holder_prio} ts={controller.current_ts})")
            return
        ts = request.ts
        if ts is None:
            if controller.config.spec.untimestamped_policy != "defer":
                self._fail("deferral-order", controller.cpu_id, request.line,
                           "untimestamped request deferred under the "
                           f"{controller.config.spec.untimestamped_policy!r} "
                           "policy")
            return
        if not beats(ts, controller.current_ts):
            return  # normal case: the deferrer has the earlier timestamp
        # The requester is *earlier* than us, yet we deferred it: only
        # the Section 3.2 single-block relaxation permits this, and only
        # when the transaction's entire deferral footprint is this one
        # block and it has no other transactional miss outstanding.
        spec = controller.config.spec
        if not spec.single_block_relaxation:
            self._fail("deferral-order", controller.cpu_id, request.line,
                       f"deferred an earlier-timestamped request "
                       f"(ts={ts} beats {controller.current_ts}) with the "
                       "single-block relaxation disabled")
            return
        extra_lines = controller.deferred.lines() - {request.line}
        if extra_lines:
            self._fail("deferral-order", controller.cpu_id, request.line,
                       "relaxation-deferred an earlier request while also "
                       f"deferring lines {sorted(extra_lines)}")
        outstanding = [m.line for m in controller.mshrs
                       if m.in_txn and m.line != request.line]
        if outstanding:
            self._fail("deferral-order", controller.cpu_id, request.line,
                       "relaxation-deferred an earlier request with "
                       f"transactional misses outstanding on lines "
                       f"{sorted(outstanding)}")

    def _check_waits_for_acyclic(self, controller, request) -> None:
        """Deferral edges only: requester waits for deferrer's commit.

        Marker-chain edges are deliberately excluded -- chains may
        transiently cycle (that is exactly what probes exist to break);
        the deferral queue, by contrast, parks a request until commit,
        so a deferral cycle is an un-breakable wait deadlock.
        """
        waits: dict[int, set[int]] = {}
        for ctl in self.machine.controllers:
            for requester in ctl.deferred.requesters():
                waits.setdefault(requester, set()).add(ctl.cpu_id)
        cycle = self._find_cycle(waits)
        if cycle is not None:
            path = " -> ".join(f"cpu{c}" for c in cycle + [cycle[0]])
            self._fail("waits-cycle", controller.cpu_id, request.line,
                       f"deferral waits-for cycle: {path}")

    @staticmethod
    def _find_cycle(edges: dict[int, set[int]]) -> Optional[list[int]]:
        WHITE, GREY, BLACK = 0, 1, 2
        colour: dict[int, int] = {}
        parent: dict[int, int] = {}

        def colour_of(node: int) -> int:
            return colour.get(node, WHITE)

        for root in list(edges):
            if colour_of(root) != WHITE:
                continue
            stack = [(root, iter(sorted(edges.get(root, ()))))]
            colour[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if colour_of(nxt) == GREY:
                        cycle = [node]
                        cur = node
                        while cur != nxt:
                            cur = parent[cur]
                            cycle.append(cur)
                        cycle.reverse()
                        return cycle
                    if colour_of(nxt) == WHITE:
                        colour[nxt] = GREY
                        parent[nxt] = node
                        stack.append(
                            (nxt, iter(sorted(edges.get(nxt, ())))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    # ------------------------------------------------------------------
    # Point: a speculation lost a conflict (statistics only)
    # ------------------------------------------------------------------
    def on_loss(self, time, cpu, kind, args, controller) -> None:
        # The ``loss`` tap fires on entry, before the handler's
        # not-speculating early return; count only real losses.
        if controller.speculating:
            self.losses += 1

    # ------------------------------------------------------------------
    # Starvation watchdog
    # ------------------------------------------------------------------
    def _schedule_watchdog(self) -> None:
        self.machine.sim.schedule(self.watchdog_period, self._watchdog_tick,
                                  label="verify-watchdog")

    def _watchdog_tick(self) -> None:
        machine = self.machine
        if all(p.done for p in machine.processors):
            return  # run finished; let the event queue drain
        if machine.controllers[0].policy.ordering != "timestamp":
            self._global_progress_tick()
            self._schedule_watchdog()
            return
        progress = self._earliest_progress()
        if progress is None:
            self._last_progress = None
            self._stuck_windows = 0
        elif progress == self._last_progress:
            self._stuck_windows += 1
            if self._stuck_windows >= self.watchdog_patience:
                ts, cpu, _committed = progress
                self._fail(
                    "starvation", cpu, None,
                    f"earliest timestamp {ts} (cpu{cpu}) made no commit "
                    f"for {self._stuck_windows * self.watchdog_period} "
                    "cycles -- the earliest transaction is not winning")
                self._stuck_windows = 0
        else:
            self._last_progress = progress
            self._stuck_windows = 0
        self._schedule_watchdog()

    def _global_progress_tick(self) -> None:
        """Watchdog mode for policies without a timestamp contract
        (``ordering`` of ``"none"`` or ``"priority"``): no single
        transaction is promised to win, but *somebody* must.  Progress
        is counted as critical-section *completions*: entries minus
        restarts, since every restart re-enters the section -- and not
        committed elisions, so lock-fallback completions count too."""
        machine = self.machine
        completed = sum(p.stats.critical_sections - p.stats.restarts
                        for p in machine.processors)
        speculating = any(c.speculating for c in machine.controllers)
        if not speculating:
            self._last_progress = (completed,)
            self._stuck_windows = 0
            return
        if self._last_progress == (completed,):
            self._stuck_windows += 1
            if self._stuck_windows >= self.watchdog_patience:
                self._fail(
                    "starvation", None, None,
                    f"no critical section completed anywhere for "
                    f"{self._stuck_windows * self.watchdog_period} cycles "
                    f"while speculation is live (policy "
                    f"{machine.controllers[0].policy.name!r} is "
                    "livelocked)")
                self._stuck_windows = 0
        else:
            self._last_progress = (completed,)
            self._stuck_windows = 0

    def _earliest_progress(self) -> Optional[tuple]:
        """(earliest active timestamp, owner cpu, owner's commit count),
        or None when no transaction is live."""
        earliest: Optional[tuple] = None
        for ctl in self.machine.controllers:
            if ctl.speculating and ctl.current_ts is not None:
                if earliest is None or ctl.current_ts < earliest[0]:
                    committed = self.machine.processors[
                        ctl.cpu_id].stats.elisions_committed
                    earliest = (ctl.current_ts, ctl.cpu_id, committed)
        return earliest
