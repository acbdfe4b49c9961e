"""Per-lock contention profiles and causal abort attribution.

The telemetry layer (:mod:`repro.obs.collect`) reports *aggregate*
conflict counters; this module answers the questions those aggregates
cannot: which **lock** pays for contention, which **cpu** aborted whom,
and what each abort **cost**.  Three pieces:

* :class:`TxnTapFolder` -- normalizes the shared machine tap stream
  (:mod:`repro.sim.taps`) into transaction-lifecycle events
  (begin/commit/abort, plus deferral push/service) on a sink.  The
  *same* folder drives the live profiler and the flight recorder's
  ``OP_TXN`` record emission, which is what makes the live conflict
  matrix and the post-hoc one (:func:`repro.obs.causal.profile_from_log`)
  byte-for-byte identical.
* :class:`ProfileBuilder` -- the accumulator: per-lock attempt/commit/
  abort counts bucketed by cause, critical-section and abort-cost
  histograms, deferral wait histograms, the who-aborts-whom conflict
  matrix and a capped list of per-abort causal chains.
* :class:`LockProfiler` -- the live tap consumer gated exactly like
  :class:`~repro.obs.collect.MachineMetrics`: a pure observer (no
  scheduling, no RNG, no machine mutation), so profiler-on runs stay
  bit-identical to profiler-off runs (the golden-fingerprint tests pin
  this).

Abort causes follow the restart-reason vocabulary of
:mod:`repro.cpu.processor`, bucketed as: ``conflict`` (timestamp-order
losses, invalidations, probe losses), ``nack`` (killed by a NACK-
retaining holder), ``context-switch`` (scheduler preemption),
``capacity`` (speculative buffering limits) and ``fallback``
(non-silent store pair broke the elision assumption).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from repro.cpu.isa import line_of
from repro.obs.metrics import LATENCY_BUCKETS, RETRY_BUCKETS, Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.machine import Machine
    from repro.obs.metrics import MetricsRegistry

#: Restart reason -> cause bucket.  Unlisted reasons (e.g.
#: ``terminated``) fall into ``other``.
CAUSE_OF = {
    "conflict-lost": "conflict",
    "conflict-lost-pending": "conflict",
    "data-conflict-pending": "conflict",
    "probe-lost": "conflict",
    "probe-lost-pending": "conflict",
    "invalidated": "conflict",
    "invalidated-in-flight": "conflict",
    "conflict-at-service": "conflict",
    "relaxation-revoked": "conflict",
    "aborted-by-holder": "nack",
    "deschedule": "context-switch",
    "capacity": "capacity",
    "wb-overflow": "capacity",
    "non-silent-pair": "fallback",
}

ABORT_CAUSES = ("conflict", "nack", "context-switch", "capacity",
                "fallback", "other")

#: How many per-abort causal chains a profile retains (event order).
MAX_CHAINS = 128

#: Snapshot schema generation (bump alongside structural changes).
PROFILE_SCHEMA = 1


def cause_of(reason: str) -> str:
    """Bucket a restart reason into one of :data:`ABORT_CAUSES`."""
    return CAUSE_OF.get(reason, "other")


def _lock_key(lock_line: Optional[int]) -> str:
    return f"{lock_line:#x}" if lock_line is not None else "?"


class _LockStats:
    """Accumulated per-lock contention numbers (one elided lock line)."""

    __slots__ = ("attempts", "commits", "aborts", "by_cause", "by_reason",
                 "cycles_lost", "cycles_committed", "deferrals",
                 "deferral_cycles", "pcs", "cs_hist", "abort_hist",
                 "defer_hist", "attempt_hist")

    def __init__(self) -> None:
        self.attempts = 0
        self.commits = 0
        self.aborts = 0
        self.by_cause: dict[str, int] = {}
        self.by_reason: dict[str, int] = {}
        self.cycles_lost = 0
        self.cycles_committed = 0
        self.deferrals = 0
        self.deferral_cycles = 0
        self.pcs: dict[str, int] = {}
        self.cs_hist = Histogram("cs_cycles", LATENCY_BUCKETS)
        self.abort_hist = Histogram("abort_cycles", LATENCY_BUCKETS)
        self.defer_hist = Histogram("defer_wait", LATENCY_BUCKETS)
        self.attempt_hist = Histogram("attempts_per_txn", RETRY_BUCKETS)

    @property
    def commit_rate(self) -> float:
        return self.commits / self.attempts if self.attempts else 0.0

    @property
    def cycles_contended(self) -> int:
        """The critical-path ranking key: cycles lost to aborts plus
        cycles other processors spent waiting in this lock's holder's
        deferred queue."""
        return self.cycles_lost + self.deferral_cycles

    def to_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "commits": self.commits,
            "aborts": self.aborts,
            "commit_rate": round(self.commit_rate, 6),
            "aborts_by_cause": dict(sorted(self.by_cause.items())),
            "aborts_by_reason": dict(sorted(self.by_reason.items())),
            "cycles_lost": self.cycles_lost,
            "cycles_committed": self.cycles_committed,
            "cycles_contended": self.cycles_contended,
            "deferrals": self.deferrals,
            "deferral_cycles": self.deferral_cycles,
            "pcs": dict(sorted(self.pcs.items())),
            "cs_cycles": self.cs_hist.to_dict(),
            "abort_cycles": self.abort_hist.to_dict(),
            "defer_wait": self.defer_hist.to_dict(),
            "attempts_per_txn": self.attempt_hist.to_dict(),
        }


class ProfileBuilder:
    """Accumulates normalized transaction events into a profile.

    Fed either live (``LockProfiler`` via :class:`TxnTapFolder`) or
    post-hoc from a record log's ``OP_TXN`` + deferral records
    (:func:`repro.obs.causal.profile_from_log`).  Both paths deliver
    the identical event sequence, so :meth:`snapshot` is deterministic
    across them -- the acceptance tests compare the serialized conflict
    matrices byte for byte.
    """

    def __init__(self) -> None:
        self._locks: dict[int, _LockStats] = {}
        #: cpu -> (begin_time, lock_line, pc) for the open transaction.
        self._open: dict[int, tuple[int, Optional[int], str]] = {}
        #: deferral key -> (push_time, holder lock line).
        self._pending_defer: dict[object, tuple[int, Optional[int]]] = {}
        #: victim cpu -> aborter cpu -> count (-1 = unattributed).
        self._matrix: dict[int, dict[int, int]] = {}
        self._chains: list[dict] = []
        #: (lock, pc, outcome) -> cycles, for folded flamegraph output.
        self._folded: dict[tuple[str, str, str], int] = {}
        self.unclosed = 0

    # -- sink interface (TxnTapFolder / causal fold) --------------------
    def _lock(self, lock_line: Optional[int]) -> _LockStats:
        stats = self._locks.get(lock_line)
        if stats is None:
            stats = self._locks[lock_line] = _LockStats()
        return stats

    def txn_begin(self, time: int, cpu: int, lock_line: Optional[int],
                  pc: str, attempts: int) -> None:
        stats = self._lock(lock_line)
        stats.attempts += 1
        stats.pcs[pc] = stats.pcs.get(pc, 0) + 1
        stats.attempt_hist.observe(attempts)
        self._open[cpu] = (time, lock_line, pc)

    def txn_commit(self, time: int, cpu: int) -> None:
        opened = self._open.pop(cpu, None)
        if opened is None:
            return
        begin, lock_line, pc = opened
        stats = self._lock(lock_line)
        stats.commits += 1
        stats.cycles_committed += time - begin
        stats.cs_hist.observe(time - begin)
        key = (_lock_key(lock_line), pc, "committed")
        self._folded[key] = self._folded.get(key, 0) + (time - begin)

    def txn_abort(self, time: int, cpu: int, reason: str,
                  conflict_line: Optional[int], aborter: int) -> None:
        opened = self._open.pop(cpu, None)
        if opened is None:
            return
        begin, lock_line, pc = opened
        cause = cause_of(reason)
        stats = self._lock(lock_line)
        stats.aborts += 1
        stats.by_cause[cause] = stats.by_cause.get(cause, 0) + 1
        stats.by_reason[reason] = stats.by_reason.get(reason, 0) + 1
        stats.cycles_lost += time - begin
        stats.abort_hist.observe(time - begin)
        row = self._matrix.setdefault(cpu, {})
        row[aborter] = row.get(aborter, 0) + 1
        if len(self._chains) < MAX_CHAINS:
            self._chains.append({
                "time": time, "victim": cpu, "aborter": aborter,
                "reason": reason, "cause": cause,
                "conflict_line": conflict_line,
                "lock": lock_line, "pc": pc,
                "cycles_lost": time - begin,
            })
        key = (_lock_key(lock_line), pc, cause)
        self._folded[key] = self._folded.get(key, 0) + (time - begin)

    def defer_push(self, time: int, holder_cpu: int, key: object) -> None:
        opened = self._open.get(holder_cpu)
        lock_line = opened[1] if opened is not None else None
        self._pending_defer[key] = (time, lock_line)

    def defer_service(self, time: int, key: object) -> None:
        pending = self._pending_defer.pop(key, None)
        if pending is None:
            return
        pushed, lock_line = pending
        stats = self._lock(lock_line)
        stats.deferrals += 1
        stats.deferral_cycles += time - pushed
        stats.defer_hist.observe(time - pushed)

    # -- export ---------------------------------------------------------
    def finalize(self) -> None:
        """Count transactions still open at end-of-run (terminated
        threads whose speculation never resolved)."""
        self.unclosed = len(self._open)
        self._open.clear()

    def snapshot(self) -> dict:
        """The full profile as sorted, JSON-stable plain data."""
        locks = {_lock_key(line): stats.to_dict()
                 for line, stats in self._locks.items()}
        totals = {
            "attempts": sum(s.attempts for s in self._locks.values()),
            "commits": sum(s.commits for s in self._locks.values()),
            "aborts": sum(s.aborts for s in self._locks.values()),
            "cycles_lost": sum(s.cycles_lost for s in self._locks.values()),
            "cycles_committed": sum(s.cycles_committed
                                    for s in self._locks.values()),
            "deferrals": sum(s.deferrals for s in self._locks.values()),
            "deferral_cycles": sum(s.deferral_cycles
                                   for s in self._locks.values()),
            "unclosed": self.unclosed,
        }
        totals["commit_rate"] = round(
            totals["commits"] / totals["attempts"], 6) \
            if totals["attempts"] else 0.0
        return {
            "schema": PROFILE_SCHEMA,
            "locks": dict(sorted(locks.items())),
            "conflicts": {
                str(victim): {str(aborter): count
                              for aborter, count in sorted(row.items())}
                for victim, row in sorted(self._matrix.items())},
            "chains": list(self._chains),
            "folded": {";".join(key): cycles
                       for key, cycles in sorted(self._folded.items())},
            "totals": totals,
        }


class TxnTapFolder:
    """Folds the raw tap stream into transaction events on ``sink``.

    The sink implements ``txn_begin(time, cpu, lock_line, pc,
    attempts)``, ``txn_commit(time, cpu)``, ``txn_abort(time, cpu,
    reason, conflict_line, aborter)``, ``defer_push(time, holder_cpu,
    key)`` and ``defer_service(time, key)``.

    Folding rules (mirroring the controller/processor wiring):

    * ``txn-begin`` (``enter_speculation``) fires *after* the elision
      checkpoint is pushed, so the root lock line, elision-site pc and
      attempt count are read straight off
      ``machine.processors[cpu].spec.checkpoint``.
    * an abort is the ``misspec`` tap (``_on_misspeculation``), which
      carries the restart reason.  A controller-initiated loss fires
      the ``loss`` tap first (same cycle, same cpu) with the conflicting
      line and the aborter cpu; the folder stashes those and the
      ``misspec`` event consumes the stash.  Resource aborts
      (capacity/wb-overflow/non-silent-pair/deschedule) have no ``loss``
      stash and no attributable aborter.
    * a transaction terminated with the run (``terminate()``) never
      fires ``misspec`` and stays open -- identical live and post-hoc.
    """

    #: Tap kinds the folder subscribes to.
    KINDS = frozenset({"txn-begin", "txn-commit", "misspec", "loss",
                       "defer", "service"})

    def __init__(self, sink) -> None:
        self.sink = sink
        self._machine: Optional["Machine"] = None
        self._open: set[int] = set()
        #: cpu -> (time, conflict_line, aborter) from the last loss tap.
        self._loss: dict[int, tuple[int, int, int]] = {}

    def attach_machine(self, machine: "Machine") -> "TxnTapFolder":
        self._machine = machine
        return self

    def on_tap(self, time: int, cpu: int, kind: str, args: tuple,
               obj: object) -> None:
        if kind == "txn-begin":
            lock_line: Optional[int] = None
            pc = ""
            attempts = 1
            if self._machine is not None:
                checkpoint = self._machine.processors[cpu].spec.checkpoint
                if checkpoint is not None and checkpoint.elisions:
                    root = checkpoint.elisions[0]
                    lock_line = line_of(root.lock_addr)
                    pc = root.pc
                    attempts = checkpoint.attempts
            self._open.add(cpu)
            self.sink.txn_begin(time, cpu, lock_line, pc, attempts)
        elif kind == "txn-commit":
            if cpu in self._open:
                self._open.discard(cpu)
                self.sink.txn_commit(time, cpu)
        elif kind == "loss":
            # Pre-call tap: the handler early-returns when not
            # speculating, mirrored here by the open set.
            if cpu in self._open:
                aborter = args[3] if len(args) > 3 else -1
                if aborter < 0 and isinstance(args[2], tuple):
                    # A probe forwarded through the directory carries
                    # origin=MEMORY, but its timestamp's second
                    # component is the champion transaction's cpu.
                    aborter = args[2][1]
                self._loss[cpu] = (time, args[1], aborter)
        elif kind == "misspec":
            if cpu not in self._open:
                return
            reason = args[0]
            conflict_line = args[1] if len(args) > 1 else 0
            aborter = -1
            stash = self._loss.pop(cpu, None)
            if stash is not None and stash[0] == time:
                conflict_line, aborter = stash[1], stash[2]
            self._open.discard(cpu)
            self.sink.txn_abort(time, cpu, reason,
                                conflict_line if conflict_line else None,
                                aborter)
        elif kind == "defer":
            self.sink.defer_push(time, cpu, args[0].req_id)
        elif kind == "service":
            self.sink.defer_service(time, args[0].req_id)


class LockProfiler:
    """The live per-lock contention profiler.

    Attach before ``run_workload`` (gated on ``config.metrics``, same
    as :class:`~repro.obs.collect.MachineMetrics`); call
    :meth:`snapshot` after the run.  Being a pure tap observer, it
    cannot move the schedule: profiler-on and profiler-off runs are
    bit-identical.
    """

    def __init__(self) -> None:
        self.builder = ProfileBuilder()
        self._folder = TxnTapFolder(self.builder)

    def attach(self, machine: "Machine") -> "LockProfiler":
        self._folder.attach_machine(machine)
        machine.taps.subscribe(self._folder.on_tap, *TxnTapFolder.KINDS)
        return self

    def snapshot(self) -> dict:
        self.builder.finalize()
        return self.builder.snapshot()

    def publish(self, registry: "MetricsRegistry",
                snap: Optional[dict] = None) -> None:
        """Publish aggregate profile families into an obs registry so
        they ride the existing OpenMetrics export.
        Pass the run's :meth:`snapshot` as ``snap`` to publish from it
        rather than build another."""
        if snap is None:
            snap = self.builder.snapshot()
        totals = snap["totals"]
        registry.counter("profile.txn.attempts").inc(totals["attempts"])
        registry.counter("profile.txn.commits").inc(totals["commits"])
        registry.counter("profile.txn.aborts").inc(totals["aborts"])
        registry.counter("profile.cycles_lost").inc(totals["cycles_lost"])
        registry.counter("profile.deferral_cycles").inc(
            totals["deferral_cycles"])
        for lock in snap["locks"].values():
            for cause, count in lock["aborts_by_cause"].items():
                registry.counter(f"profile.aborts.{cause}").inc(count)
        registry.gauge("profile.commit_rate").set(totals["commit_rate"])
        registry.gauge("profile.locks").set(len(snap["locks"]))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def describe_chain(chain: dict) -> str:
    """One abort's causal chain as a sentence, e.g. ``txn on cpu 3
    (lock 0x40 @ list:push) aborted at t=1234: conflicting access to
    line 0x80 by cpu 1 (conflict-lost), 210 cycles lost``."""
    lock = _lock_key(chain.get("lock"))
    pc = chain.get("pc") or "?"
    where = chain.get("conflict_line")
    where_s = f" to line {where:#x}" if where is not None else ""
    aborter = chain.get("aborter", -1)
    by = f" by cpu {aborter}" if aborter is not None and aborter >= 0 else ""
    return (f"txn on cpu {chain['victim']} (lock {lock} @ {pc}) aborted "
            f"at t={chain['time']}: conflicting access{where_s}{by} "
            f"({chain['reason']}), {chain['cycles_lost']} cycles lost")


def critical_path(snapshot: dict) -> list[tuple[str, dict]]:
    """Locks ranked by cycles lost to aborts + deferral (descending)."""
    return sorted(snapshot.get("locks", {}).items(),
                  key=lambda item: (-item[1]["cycles_contended"], item[0]))


def matrix_canonical_json(snapshot: dict) -> str:
    """The conflict matrix serialized canonically (sorted keys, no
    whitespace) -- the byte-for-byte comparison form the acceptance
    tests use for live ≡ post-hoc."""
    return json.dumps(snapshot.get("conflicts", {}), sort_keys=True,
                      separators=(",", ":"))


def render_markdown(snapshot: dict, title: str = "contention profile"
                    ) -> str:
    """The profile as a readable markdown report: critical-path lock
    table, the conflict matrix and the top causal chains."""
    lines = [f"# {title}", ""]
    totals = snapshot.get("totals", {})
    lines.append(
        f"{totals.get('attempts', 0)} elision attempts, "
        f"{totals.get('commits', 0)} commits "
        f"(rate {totals.get('commit_rate', 0.0):.3f}), "
        f"{totals.get('aborts', 0)} aborts costing "
        f"{totals.get('cycles_lost', 0)} cycles; "
        f"{totals.get('deferrals', 0)} deferrals costing "
        f"{totals.get('deferral_cycles', 0)} wait cycles.")
    if totals.get("unclosed"):
        lines.append(f"{totals['unclosed']} transaction(s) still open "
                     f"at end of run.")
    lines += ["", "## critical path (cycles lost to aborts + deferral)",
              "",
              "| lock | site | attempts | commits | rate | aborts "
              "| top cause | cycles lost | defer wait |",
              "|---|---|---|---|---|---|---|---|---|"]
    for lock, stats in critical_path(snapshot):
        pcs = stats.get("pcs", {})
        site = max(pcs, key=pcs.get) if pcs else "?"
        causes = stats.get("aborts_by_cause", {})
        top = (max(causes, key=causes.get)
               if causes else "-")
        lines.append(
            f"| {lock} | {site} | {stats['attempts']} "
            f"| {stats['commits']} | {stats['commit_rate']:.3f} "
            f"| {stats['aborts']} | {top} | {stats['cycles_lost']} "
            f"| {stats['deferral_cycles']} |")
    conflicts = snapshot.get("conflicts", {})
    if conflicts:
        aborters = sorted({a for row in conflicts.values() for a in row},
                          key=lambda a: int(a))
        lines += ["", "## who aborts whom (victim rows, aborter columns;"
                      " -1 = unattributed)", "",
                  "| victim \\ aborter | " + " | ".join(
                      f"cpu {a}" for a in aborters) + " |",
                  "|---" * (len(aborters) + 1) + "|"]
        for victim in sorted(conflicts, key=int):
            row = conflicts[victim]
            lines.append(f"| cpu {victim} | " + " | ".join(
                str(row.get(a, 0)) for a in aborters) + " |")
    chains = snapshot.get("chains", [])
    if chains:
        lines += ["", "## causal chains (first "
                      f"{min(len(chains), 10)} of {len(chains)})", ""]
        for chain in chains[:10]:
            lines.append(f"- {describe_chain(chain)}")
    return "\n".join(lines) + "\n"


def render_folded(snapshot: dict) -> str:
    """Folded-stack output (``lock;site;outcome cycles``) suitable for
    standard flamegraph tooling."""
    out = [f"{stack} {cycles}"
           for stack, cycles in sorted(snapshot.get("folded", {}).items())]
    return "\n".join(out) + ("\n" if out else "")
