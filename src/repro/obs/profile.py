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
from typing import TYPE_CHECKING, Callable, Optional

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


def _tally(tally: dict, key) -> None:
    # Written out by hand in txn_begin and txn_commit, which run once
    # per transaction: the call would cost more than the bump.
    tally[key] = tally.get(key, 0) + 1


class _LockStats:
    """Accumulated per-lock contention numbers (one elided lock line).
    The counts and cycle sums are the histograms' own."""

    __slots__ = ("by_cause", "by_reason", "pcs", "cs_hist", "abort_hist",
                 "defer_hist", "attempt_hist")

    def __init__(self) -> None:
        self.by_cause: dict[str, int] = {}
        self.by_reason: dict[str, int] = {}
        self.pcs: dict[str, int] = {}
        self.cs_hist = Histogram("cs_cycles", LATENCY_BUCKETS)
        self.abort_hist = Histogram("abort_cycles", LATENCY_BUCKETS)
        self.defer_hist = Histogram("defer_wait", LATENCY_BUCKETS)
        self.attempt_hist = Histogram("attempts_per_txn", RETRY_BUCKETS)

    def to_dict(self) -> dict:
        cs = self.cs_hist.to_dict()
        lost = self.abort_hist.to_dict()
        waits = self.defer_hist.to_dict()
        attempts = self.attempt_hist.to_dict()
        return {
            "attempts": attempts["count"],
            "commits": cs["count"],
            "aborts": lost["count"],
            "commit_rate": round(cs["count"] / attempts["count"], 6)
            if attempts["count"] else 0.0,
            "aborts_by_cause": dict(sorted(self.by_cause.items())),
            "aborts_by_reason": dict(sorted(self.by_reason.items())),
            "cycles_lost": lost["sum"],
            "cycles_committed": cs["sum"],
            # The critical-path ranking key: cycles lost to aborts plus
            # cycles other processors spent waiting in this lock's
            # holder's deferred queue.
            "cycles_contended": lost["sum"] + waits["sum"],
            "deferrals": waits["count"],
            "deferral_cycles": waits["sum"],
            "pcs": dict(sorted(self.pcs.items())),
            "cs_cycles": cs,
            "abort_cycles": lost,
            "defer_wait": waits,
            "attempts_per_txn": attempts,
        }


class _Site:
    """One elision site -- a (lock line, pc) pair -- and tallies of its
    transactions' raw values.  :meth:`ProfileBuilder.snapshot` folds
    them into the per-lock numbers, so an event costs a tally bump."""

    __slots__ = ("lock_line", "pc", "attempts", "committed", "aborted")

    def __init__(self, lock_line: Optional[int], pc: str) -> None:
        self.lock_line = lock_line
        self.pc = pc
        self.attempts: dict[int, int] = {}     # attempt number -> begins
        self.committed: dict[int, int] = {}    # cs cycles -> commits
        #: restart reason -> cycles lost -> aborts
        self.aborted: dict[str, dict[int, int]] = {}


class ProfileBuilder:
    """Accumulates normalized transaction events into a profile.

    Fed either live (``LockProfiler`` via :class:`TxnTapFolder`) or
    post-hoc from a record log's ``OP_TXN`` + deferral records
    (:func:`repro.obs.causal.profile_from_log`).  Both paths deliver
    the identical event sequence, so :meth:`snapshot` is deterministic
    across them -- the acceptance tests compare the serialized conflict
    matrices byte for byte.

    An event only tallies its raw value; histograms, per-lock sums and
    the lock keys are built by :meth:`snapshot`, which reads the tallies
    without changing them.
    """

    def __init__(self) -> None:
        #: cpu -> (begin_time, site) of its open transaction.  The
        #: folder gates its taps on it (see :class:`TxnTapFolder`).
        self.open: dict[int, tuple[int, _Site]] = {}
        self._sites: dict[tuple[Optional[int], str], _Site] = {}
        #: deferral key -> (push_time, holder lock line).
        self._pending_defer: dict[object, tuple[int, Optional[int]]] = {}
        #: (holder lock line, wait cycles) -> serviced deferrals.
        self._waits: dict[tuple[Optional[int], int], int] = {}
        #: victim cpu -> aborter cpu -> count (-1 = unattributed).
        self._matrix: dict[int, dict[int, int]] = {}
        self._chains: list[dict] = []

    # -- sink interface (TxnTapFolder / causal fold) --------------------
    def txn_begin(self, time: int, cpu: int, lock_line: Optional[int],
                  pc: str, attempts: int) -> None:
        site = self._sites.get((lock_line, pc))
        if site is None:
            site = self._sites[lock_line, pc] = _Site(lock_line, pc)
        tally = site.attempts
        tally[attempts] = tally.get(attempts, 0) + 1
        self.open[cpu] = (time, site)

    def txn_commit(self, time: int, cpu: int) -> None:
        opened = self.open.pop(cpu, None)
        if opened is None:
            return
        tally = opened[1].committed
        cycles = time - opened[0]
        tally[cycles] = tally.get(cycles, 0) + 1

    def txn_abort(self, time: int, cpu: int, reason: str,
                  conflict_line: Optional[int], aborter: int) -> None:
        opened = self.open.pop(cpu, None)
        if opened is None:
            return
        begin, site = opened
        _tally(site.aborted.setdefault(reason, {}), time - begin)
        _tally(self._matrix.setdefault(cpu, {}), aborter)
        if len(self._chains) < MAX_CHAINS:
            self._chains.append({
                "time": time, "victim": cpu, "aborter": aborter,
                "reason": reason, "cause": cause_of(reason),
                "conflict_line": conflict_line,
                "lock": site.lock_line, "pc": site.pc,
                "cycles_lost": time - begin,
            })

    def defer_push(self, time: int, holder_cpu: int, key: object) -> None:
        opened = self.open.get(holder_cpu)
        lock_line = opened[1].lock_line if opened is not None else None
        self._pending_defer[key] = (time, lock_line)

    def defer_service(self, time: int, key: object) -> None:
        pending = self._pending_defer.pop(key, None)
        if pending is not None:
            _tally(self._waits, (pending[1], time - pending[0]))

    # -- export ---------------------------------------------------------
    def _fold(self) -> tuple[dict[str, _LockStats], dict[str, int]]:
        """The per-lock stats and the folded stacks, from the tallies."""
        locks: dict[Optional[int], _LockStats] = {}
        folded: dict[tuple[str, str, str], int] = {}

        def lock(line: Optional[int]) -> _LockStats:
            stats = locks.get(line)
            if stats is None:
                stats = locks[line] = _LockStats()
            return stats

        def fold(stack: tuple[str, str, str], cycles: int) -> None:
            folded[stack] = folded.get(stack, 0) + cycles

        for site in self._sites.values():
            stats = lock(site.lock_line)
            key = _lock_key(site.lock_line)
            stats.attempt_hist.observe_tally(site.attempts)
            stats.pcs[site.pc] = \
                stats.pcs.get(site.pc, 0) + sum(site.attempts.values())
            if site.committed:
                stats.cs_hist.observe_tally(site.committed)
                fold((key, site.pc, "committed"),
                     sum(c * n for c, n in site.committed.items()))
            for reason, lost in site.aborted.items():
                cause = cause_of(reason)
                count = sum(lost.values())
                stats.by_cause[cause] = stats.by_cause.get(cause, 0) + count
                stats.by_reason[reason] = \
                    stats.by_reason.get(reason, 0) + count
                stats.abort_hist.observe_tally(lost)
                fold((key, site.pc, cause),
                     sum(c * n for c, n in lost.items()))
        for (line, wait), count in self._waits.items():
            lock(line).defer_hist.observe_many(wait, count)
        return ({_lock_key(line): stats for line, stats in locks.items()},
                {";".join(stack): cycles
                 for stack, cycles in sorted(folded.items())})

    def snapshot(self) -> dict:
        """The full profile as sorted, JSON-stable plain data.  A
        transaction still open (a thread terminated mid-speculation)
        counts as ``unclosed``."""
        stats, folded = self._fold()
        locks = {key: stats[key].to_dict() for key in sorted(stats)}
        totals = {name: sum(lock[name] for lock in locks.values())
                  for name in ("attempts", "commits", "aborts",
                               "cycles_lost", "cycles_committed",
                               "deferrals", "deferral_cycles")}
        totals["unclosed"] = len(self.open)
        totals["commit_rate"] = round(
            totals["commits"] / totals["attempts"], 6) \
            if totals["attempts"] else 0.0
        return {
            "schema": PROFILE_SCHEMA,
            "locks": locks,
            "conflicts": {
                str(victim): {str(aborter): count
                              for aborter, count in sorted(row.items())}
                for victim, row in sorted(self._matrix.items())},
            "chains": [dict(chain) for chain in self._chains],
            "folded": folded,
            "totals": totals,
        }


class TxnTapFolder:
    """Folds the raw tap stream into transaction events on ``sink``.

    The sink implements ``txn_begin(time, cpu, lock_line, pc,
    attempts)``, ``txn_commit(time, cpu)``, ``txn_abort(time, cpu,
    reason, conflict_line, aborter)`` and, when the folder is attached
    with ``deferrals``, ``defer_push(time, holder_cpu, key)`` and
    ``defer_service(time, key)``.  It also owns ``open``, a mapping
    keyed by the cpus with an open transaction: ``txn_begin`` adds the
    cpu, ``txn_commit``/``txn_abort`` remove it.  The folder reads that
    one table to gate commit, loss and misspec taps, so open
    transactions are tracked once.

    One handler per tap kind (``on_<kind>``).  Folding rules (mirroring
    the controller/processor wiring):

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

    def __init__(self, sink) -> None:
        self.sink = sink
        self._open = sink.open
        self._processors: list = []
        #: cpu -> (time, conflict_line, aborter) from the last loss tap.
        self._loss: dict[int, tuple[int, int, int]] = {}
        self._handlers: list[tuple[str, Callable]] = []

    def attach(self, machine: "Machine",
               deferrals: bool = True) -> "TxnTapFolder":
        """Subscribe one handler per consumed kind on ``machine``'s
        taps; ``deferrals`` adds the ``defer``/``service`` handlers."""
        self._processors = machine.processors
        self._handlers = [("txn-begin", self.on_txn_begin),
                          ("txn-commit", self.on_txn_commit),
                          ("loss", self.on_loss),
                          ("misspec", self.on_misspec)]
        if deferrals:
            self._handlers += [("defer", self.on_defer),
                               ("service", self.on_service)]
        for kind, handler in self._handlers:
            machine.taps.subscribe(handler, kind)
        return self

    def detach(self, machine: "Machine") -> None:
        """Unsubscribe the handlers :meth:`attach` subscribed."""
        machine.taps.unsubscribe(*(fn for _kind, fn in self._handlers))

    def on_txn_begin(self, time: int, cpu: int, kind: str, args: tuple,
                     obj: object) -> None:
        checkpoint = self._processors[cpu].spec.checkpoint
        if checkpoint is not None and checkpoint.elisions:
            root = checkpoint.elisions[0]
            self.sink.txn_begin(time, cpu, line_of(root.lock_addr), root.pc,
                                checkpoint.attempts)
        else:
            self.sink.txn_begin(time, cpu, None, "", 1)

    def on_txn_commit(self, time: int, cpu: int, kind: str, args: tuple,
                      obj: object) -> None:
        if cpu in self._open:
            self.sink.txn_commit(time, cpu)

    def on_loss(self, time: int, cpu: int, kind: str, args: tuple,
                obj: object) -> None:
        # Pre-call tap: the handler early-returns when not speculating,
        # mirrored here by the open table.
        if cpu in self._open:
            aborter = args[3] if len(args) > 3 else -1
            if aborter < 0 and isinstance(args[2], tuple):
                # A probe forwarded through the directory carries
                # origin=MEMORY, but its timestamp's second component
                # is the champion transaction's cpu.
                aborter = args[2][1]
            self._loss[cpu] = (time, args[1], aborter)

    def on_misspec(self, time: int, cpu: int, kind: str, args: tuple,
                   obj: object) -> None:
        if cpu not in self._open:
            return
        reason = args[0]
        conflict_line = args[1] if len(args) > 1 else 0
        aborter = -1
        stash = self._loss.pop(cpu, None)
        if stash is not None and stash[0] == time:
            conflict_line, aborter = stash[1], stash[2]
        self.sink.txn_abort(time, cpu, reason,
                            conflict_line if conflict_line else None,
                            aborter)

    def on_defer(self, time: int, cpu: int, kind: str, args: tuple,
                 obj: object) -> None:
        self.sink.defer_push(time, cpu, args[0].req_id)

    def on_service(self, time: int, cpu: int, kind: str, args: tuple,
                   obj: object) -> None:
        self.sink.defer_service(time, args[0].req_id)


class LockProfiler:
    """The live per-lock contention profiler.

    Attach before ``run_workload`` (gated on ``config.metrics``, same
    as :class:`~repro.obs.collect.MachineMetrics`); call
    :meth:`snapshot` after the run, before or after :meth:`publish`,
    as often as needed.  Being a pure tap observer, it cannot move the
    schedule: profiler-on and profiler-off runs are bit-identical.
    """

    def __init__(self) -> None:
        self.builder = ProfileBuilder()
        self._folder = TxnTapFolder(self.builder)

    def attach(self, machine: "Machine") -> "LockProfiler":
        self._folder.attach(machine)
        return self

    def snapshot(self) -> dict:
        return self.builder.snapshot()

    def publish(self, registry: "MetricsRegistry",
                snap: Optional[dict] = None) -> None:
        """Publish aggregate profile families into an obs registry so
        they ride the existing OpenMetrics export.
        Pass the run's :meth:`snapshot` as ``snap`` to publish from it
        rather than build another.  The counters are set, not added
        to, so publishing twice leaves the same values."""
        if snap is None:
            snap = self.builder.snapshot()
        totals = snap["totals"]
        counter = registry.counter
        counter("profile.txn.attempts").value = totals["attempts"]
        counter("profile.txn.commits").value = totals["commits"]
        counter("profile.txn.aborts").value = totals["aborts"]
        counter("profile.cycles_lost").value = totals["cycles_lost"]
        counter("profile.deferral_cycles").value = totals["deferral_cycles"]
        aborts: dict[str, int] = {}
        for lock in snap["locks"].values():
            for cause, count in lock["aborts_by_cause"].items():
                aborts[cause] = aborts.get(cause, 0) + count
        for cause, count in aborts.items():
            counter(f"profile.aborts.{cause}").value = count
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
