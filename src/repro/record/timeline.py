"""Time-travel state reconstruction from a record log alone.

A :class:`Timeline` answers debugger queries -- "what did the machine
look like at cycle N", "who touched line X between cycles A and B",
"when was CPU 2 inside a transaction" -- purely by folding the decoded
log records, never by re-simulating.  That is what makes seeking cheap
and what makes the queries trustworthy while debugging a determinism
bug: the answers come from the captured execution, not from a re-run
that might diverge.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.cpu.isa import line_of
from repro.record.format import (DEFER_PUSH, TXN_ABORT, LogImage, LogRecord,
                                 load_log)

#: Tap kinds that open/close a CPU's transaction window.
_TXN_OPEN = "txn-begin"
_TXN_CLOSE = frozenset({"commit", "abort", "loss"})


@dataclass
class CpuState:
    """One CPU's reconstructed view at a point in time."""

    cpu: int
    in_txn: bool = False
    txn_since: Optional[int] = None
    restarts: int = 0
    commits: int = 0
    defer_depth: int = 0

    def render(self) -> str:
        txn = (f"in txn since t={self.txn_since}" if self.in_txn
               else "idle")
        return (f"cpu{self.cpu}: {txn}, commits={self.commits}, "
                f"restarts={self.restarts}, "
                f"deferred={self.defer_depth}")


@dataclass
class MachineSnapshot:
    """The whole reconstructed machine at one cycle."""

    time: int
    cpus: dict[int, CpuState] = field(default_factory=dict)
    #: (cpu, line) -> (state letter, flags) as last recorded.
    lines: dict[tuple[int, int], tuple[str, int]] = field(
        default_factory=dict)
    #: lock line -> owning cpu (writable holder), None when free.
    lock_owners: dict[int, Optional[int]] = field(default_factory=dict)
    bus_outstanding: int = 0
    #: CPU slot -> workload thread on it (repro.sched OP_SCHED records);
    #: empty for scheduler-off logs.
    on_slot: dict[int, Optional[int]] = field(default_factory=dict)

    def render(self) -> str:
        out = [f"state at t={self.time}:"]
        for cpu in sorted(self.cpus):
            out.append("  " + self.cpus[cpu].render())
        if self.on_slot:
            slots = ", ".join(
                f"slot{slot}=" + ("idle" if thread is None
                                  else f"thread{thread}")
                for slot, thread in sorted(self.on_slot.items()))
            out.append(f"  sched: {slots}")
        if self.lock_owners:
            owners = ", ".join(
                f"{line:#x}=" + ("free" if owner is None else f"cpu{owner}")
                for line, owner in sorted(self.lock_owners.items()))
            out.append(f"  locks: {owners}")
        out.append(f"  bus: {self.bus_outstanding} outstanding")
        held = {}
        for (cpu, line), (state, _flags) in sorted(self.lines.items()):
            if state not in ("I", "-"):
                held.setdefault(line, []).append(f"cpu{cpu}:{state}")
        for line in sorted(held):
            out.append(f"  line {line:#x}: " + " ".join(held[line]))
        return "\n".join(out)


class Timeline:
    """Seekable, queryable view over one decoded log."""

    def __init__(self, image: Union[LogImage, bytes, str]):
        if not isinstance(image, LogImage):
            image = load_log(image)
        self.image = image
        self.records = image.records
        self._times = [record.time for record in self.records]
        # Lock *lines* derived from the lock word addresses the
        # recorder embedded at capture time.
        self.lock_lines = sorted({line_of(addr)
                                  for addr in image.header.get("locks", [])})

    # ------------------------------------------------------------------
    # Seeking
    # ------------------------------------------------------------------
    @property
    def final_time(self) -> int:
        return self.image.end.final_time

    def index_at(self, cycle: int) -> int:
        """Number of records with ``time <= cycle``."""
        return bisect.bisect_right(self._times, cycle)

    def state_at(self, cycle: int) -> MachineSnapshot:
        """Fold the log up to (and including) ``cycle``."""
        snap = MachineSnapshot(time=cycle)
        cpus = snap.cpus
        outstanding: set[int] = set()
        lock_lines = set(self.lock_lines)
        for record in self.records[:self.index_at(cycle)]:
            if record.op == "tap":
                cpu = record.cpu
                state = cpus.get(cpu)
                if state is None and cpu is not None and cpu >= 0:
                    state = cpus[cpu] = CpuState(cpu=cpu)
                kind = record.label
                if kind == _TXN_OPEN and state is not None:
                    state.in_txn = True
                    state.txn_since = record.time
                elif kind in _TXN_CLOSE and state is not None:
                    state.in_txn = False
                    state.txn_since = None
                    if kind == "commit":
                        state.commits += 1
                elif kind == "misspec" and state is not None:
                    state.restarts += 1
                elif kind == "request" and record.ref is not None:
                    outstanding.add(record.ref)
                elif kind == "data" and record.ref is not None:
                    outstanding.discard(record.ref)
            elif record.op == "state":
                snap.lines[(record.cpu, record.line)] = (record.label,
                                                         record.flags or 0)
                if record.line in lock_lines:
                    self._update_lock_owner(snap, record)
            elif record.op == "defer":
                state = cpus.get(record.cpu)
                if state is None and record.cpu is not None:
                    state = cpus[record.cpu] = CpuState(cpu=record.cpu)
                if state is not None:
                    state.defer_depth = record.depth or 0
            elif record.op == "sched":
                if record.label == "switch-in":
                    snap.on_slot[record.cpu] = record.ref
                elif record.label == "switch-out" \
                        and snap.on_slot.get(record.cpu) == record.ref:
                    snap.on_slot[record.cpu] = None
        snap.bus_outstanding = len(outstanding)
        for line in self.lock_lines:
            snap.lock_owners.setdefault(line, None)
        return snap

    @staticmethod
    def _update_lock_owner(snap: MachineSnapshot,
                           record: LogRecord) -> None:
        """A lock's owner is the CPU holding its line writable (M/E);
        dropping below that releases the claim."""
        if record.label in ("M", "E"):
            snap.lock_owners[record.line] = record.cpu
        elif snap.lock_owners.get(record.line) == record.cpu:
            snap.lock_owners[record.line] = None

    # ------------------------------------------------------------------
    # Interval queries
    # ------------------------------------------------------------------
    def line_history(self, line: int, since: int = 0,
                     until: Optional[int] = None) -> list[LogRecord]:
        """Every record touching ``line`` in ``[since, until]`` -- the
        "who touched line X between cycles A and B" query."""
        out = []
        for record in self.records:
            if record.time < since:
                continue
            if until is not None and record.time > until:
                break
            if record.line == line:
                out.append(record)
        return out

    def cpu_history(self, cpu: int, since: int = 0,
                    until: Optional[int] = None) -> list[LogRecord]:
        out = []
        for record in self.records:
            if record.time < since:
                continue
            if until is not None and record.time > until:
                break
            if record.cpu == cpu:
                out.append(record)
        return out

    def txn_spans(self, cpu: Optional[int] = None
                  ) -> list[tuple[int, int, int, str]]:
        """(cpu, begin, end, outcome) for every closed transaction
        window, in begin order.

        Aborted windows carry the restart reason from the co-located
        ``OP_TXN`` abort record (e.g. ``loss:conflict-lost``,
        ``abort:deschedule``) -- the same reason vocabulary
        :mod:`repro.cpu.processor` uses.  A window with no txn abort
        record at its close keeps the bare closing tap kind.
        """
        reasons = {(record.cpu, record.time): record.label
                   for record in self.records
                   if record.op == "txn" and record.flags == TXN_ABORT}
        open_since: dict[int, int] = {}
        spans: list[tuple[int, int, int, str]] = []
        for record in self.records:
            if record.op != "tap" or record.cpu is None:
                continue
            if record.label == _TXN_OPEN:
                open_since.setdefault(record.cpu, record.time)
            elif record.label in _TXN_CLOSE:
                begin = open_since.pop(record.cpu, None)
                if begin is not None:
                    outcome = record.label
                    if outcome != "commit":
                        reason = reasons.get((record.cpu, record.time))
                        if reason is not None:
                            outcome = f"{outcome}:{reason}"
                    spans.append((record.cpu, begin, record.time, outcome))
        if cpu is not None:
            spans = [s for s in spans if s[0] == cpu]
        spans.sort(key=lambda s: (s[1], s[0]))
        return spans

    def who_on_cpu(self, cycle: int) -> dict[int, Optional[int]]:
        """``slot -> thread`` occupancy at ``cycle``, the
        :meth:`state_at` fold's (empty dict for scheduler-off logs) --
        the "who was on-CPU at cycle N" replay query."""
        return self.state_at(cycle).on_slot

    def sched_spans(self) -> list[tuple[int, int, int, int]]:
        """(slot, thread, on_time, off_time) for every closed slot
        occupancy window, in switch-in order.  A thread still on-CPU at
        the end of the log closes at :attr:`final_time`."""
        open_since: dict[int, tuple[int, int]] = {}
        spans: list[tuple[int, int, int, int]] = []
        for record in self.records:
            if record.op != "sched":
                continue
            if record.label == "switch-in":
                open_since[record.cpu] = (record.ref, record.time)
            elif record.label == "switch-out":
                opened = open_since.pop(record.cpu, None)
                if opened is not None and opened[0] == record.ref:
                    spans.append((record.cpu, record.ref, opened[1],
                                  record.time))
        for slot, (thread, since) in sorted(open_since.items()):
            spans.append((slot, thread, since, self.final_time))
        spans.sort(key=lambda s: (s[2], s[0]))
        return spans

    def counts(self) -> dict[str, int]:
        """Histogram over record ops and tap kinds."""
        histogram: dict[str, int] = {}
        for record in self.records:
            key = (f"tap:{record.label}" if record.op == "tap"
                   else record.op)
            histogram[key] = histogram.get(key, 0) + 1
        return histogram
