"""Per-lock contention profiles and causal abort attribution.

The telemetry layer (:mod:`repro.obs.collect`) reports *aggregate*
conflict counters; this module answers the questions those aggregates
cannot: which **lock** pays for contention, which **cpu** aborted whom,
and what each abort **cost**.  The pieces:

* :class:`ProfileBuilder` -- the accumulator: per-lock attempt/commit/
  abort counts bucketed by cause, critical-section and abort-cost
  histograms, deferral wait histograms, the who-aborts-whom conflict
  matrix and a capped list of per-abort causal chains, all folded at
  :meth:`~ProfileBuilder.snapshot` from per-transaction tallies.
* :class:`LockProfiler` -- the live tap consumer gated exactly like
  :class:`~repro.obs.collect.MachineMetrics`: a pure observer (no
  scheduling, no RNG, no machine mutation), so profiler-on runs stay
  bit-identical to profiler-off runs (the golden-fingerprint tests pin
  this).  It takes one call per closed transaction, reading the
  transaction's begin off its processor's checkpoint, and shares the
  machine's :class:`DeferralTally` with the metrics collector.

A transaction's abort is read where the machine states it: the
processor's ``misspec`` point carries the restart reason, the
conflicting line and the aborting cpu (-1 for an abort no other cpu
caused).  The flight recorder writes the same three into its
``OP_TXN`` abort records, which is what makes the live conflict matrix
and the post-hoc one (:func:`repro.obs.causal.profile_from_log`)
byte-for-byte identical.

Abort causes follow the restart-reason vocabulary of
:mod:`repro.cpu.processor`, bucketed as: ``conflict`` (timestamp-order
losses, invalidations, probe losses), ``context-switch`` (scheduler
preemption), ``capacity`` (speculative buffering limits) and
``fallback`` (non-silent store pair broke the elision assumption).
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
    "deschedule": "context-switch",
    "capacity": "capacity",
    "wb-overflow": "capacity",
    "non-silent-pair": "fallback",
}

ABORT_CAUSES = ("conflict", "context-switch", "capacity", "fallback",
                "other")

#: How many per-abort causal chains a profile retains (event order).
MAX_CHAINS = 128

#: Snapshot schema generation (bump alongside structural changes).
PROFILE_SCHEMA = 1


def cause_of(reason: str) -> str:
    """Bucket a restart reason into one of :data:`ABORT_CAUSES`."""
    return CAUSE_OF.get(reason, "other")


def _lock_key(lock_line: Optional[int]) -> str:
    return f"{lock_line:#x}" if lock_line is not None else "?"


def _tally(tally: dict, key, count: int = 1) -> None:
    tally[key] = tally.get(key, 0) + count


def _root_of(checkpoint) -> tuple[Optional[int], str, int]:
    """A checkpoint's transaction as the profile keys it: the root
    elision's lock line and pc, and the attempt number."""
    root = checkpoint.elisions[0]
    return line_of(root.lock_addr), root.pc, checkpoint.attempts


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

    def begun(self, pc: str, attempts: int, count: int) -> None:
        """``count`` transactions of site ``pc`` began at attempt
        number ``attempts``."""
        self.attempt_hist.observe_many(attempts, count)
        self.pcs[pc] = self.pcs.get(pc, 0) + count

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


class ProfileBuilder:
    """Tallies closed transactions and serviced deferrals into a profile.

    A transaction is keyed by its elision site -- the root lock line
    and pc -- and its attempt number.  A commit bumps the tally of its
    critical-section cycles, an abort the tally of its reason and
    cycles lost plus a conflict-matrix cell and (the first
    :data:`MAX_CHAINS`) a causal chain.  :meth:`snapshot` folds the
    tallies into histograms, per-lock sums and lock keys without
    changing them, so it is deterministic and repeatable.

    Fed live by :class:`LockProfiler`, which reads each transaction's
    begin off its checkpoint when it closes, or post-hoc through the
    begin/commit/abort and deferral calls below from a record log's
    ``OP_TXN`` and deferral records
    (:func:`repro.obs.causal.builder_from_log`).  Both paths bump the
    same tallies, so the two snapshots are byte-identical.
    """

    def __init__(self) -> None:
        #: cpu -> (begin time, lock line, pc, attempt number) of its
        #: open transaction (post-hoc path).
        self.open: dict[int, tuple[int, Optional[int], str, int]] = {}
        #: (lock line, pc, attempt number, cs cycles) -> commits.
        self.commits: dict[tuple, int] = {}
        #: (lock line, pc, attempt number, reason, cycles lost) -> aborts.
        self.aborts: dict[tuple, int] = {}
        #: (holder lock line, wait cycles) -> serviced deferrals.
        self.waits: dict[tuple[Optional[int], int], int] = {}
        #: victim cpu -> aborter cpu -> count (-1 = unattributed).
        self.matrix: dict[int, dict[int, int]] = {}
        self.chains: list[dict] = []
        #: deferral key -> (push time, holder lock line).
        self._pending_defer: dict[object, tuple[int, Optional[int]]] = {}

    # -- one closed transaction -----------------------------------------
    def abort(self, time: int, cpu: int, begin: int,
              lock_line: Optional[int], pc: str, attempts: int,
              reason: str, conflict_line: Optional[int],
              aborter: int) -> None:
        """Tally one aborted transaction that began at ``begin``."""
        _tally(self.aborts, (lock_line, pc, attempts, reason, time - begin))
        _tally(self.matrix.setdefault(cpu, {}), aborter)
        if len(self.chains) < MAX_CHAINS:
            self.chains.append({
                "time": time, "victim": cpu, "aborter": aborter,
                "reason": reason, "cause": cause_of(reason),
                "conflict_line": conflict_line,
                "lock": lock_line, "pc": pc,
                "cycles_lost": time - begin,
            })

    # -- post-hoc events (a record log's OP_TXN and deferral records) ---
    def txn_begin(self, time: int, cpu: int, lock_line: Optional[int],
                  pc: str, attempts: int) -> None:
        self.open[cpu] = (time, lock_line, pc, attempts)

    def txn_commit(self, time: int, cpu: int) -> None:
        opened = self.open.pop(cpu, None)
        if opened is not None:
            begin, lock_line, pc, attempts = opened
            _tally(self.commits, (lock_line, pc, attempts, time - begin))

    def txn_abort(self, time: int, cpu: int, reason: str,
                  conflict_line: Optional[int], aborter: int) -> None:
        opened = self.open.pop(cpu, None)
        if opened is not None:
            self.abort(time, cpu, *opened, reason, conflict_line, aborter)

    def defer_push(self, time: int, holder_cpu: int, key: object) -> None:
        opened = self.open.get(holder_cpu)
        lock_line = opened[1] if opened is not None else None
        self._pending_defer[key] = (time, lock_line)

    def defer_service(self, time: int, key: object) -> None:
        pending = self._pending_defer.pop(key, None)
        if pending is not None:
            _tally(self.waits, (pending[1], time - pending[0]))

    # -- export ---------------------------------------------------------
    def _fold(self, opened: list, waits: dict
              ) -> tuple[dict[str, _LockStats], dict[str, int]]:
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

        for (line, pc, attempts, cycles), count in self.commits.items():
            stats = lock(line)
            stats.begun(pc, attempts, count)
            stats.cs_hist.observe_many(cycles, count)
            fold((_lock_key(line), pc, "committed"), cycles * count)
        for (line, pc, attempts, reason, cycles), count in \
                self.aborts.items():
            stats = lock(line)
            stats.begun(pc, attempts, count)
            cause = cause_of(reason)
            _tally(stats.by_cause, cause, count)
            _tally(stats.by_reason, reason, count)
            stats.abort_hist.observe_many(cycles, count)
            fold((_lock_key(line), pc, cause), cycles * count)
        for line, pc, attempts in opened:
            lock(line).begun(pc, attempts, 1)
        for tally in (self.waits, waits):
            for (line, wait), count in tally.items():
                lock(line).defer_hist.observe_many(wait, count)
        return ({_lock_key(line): stats for line, stats in locks.items()},
                {";".join(stack): cycles
                 for stack, cycles in sorted(folded.items())})

    def snapshot(self, opened: tuple = (), waits: Optional[dict] = None
                 ) -> dict:
        """The full profile as sorted, JSON-stable plain data.

        A transaction still open -- in :attr:`open` or one of the
        ``(lock line, pc, attempt number)`` triples in ``opened`` --
        counts as begun and ``unclosed``.  ``waits`` are deferral waits
        tallied outside the builder, folded in beside its own (the live
        profiler passes both from the machine)."""
        opened = [entry[1:] for entry in self.open.values()] + list(opened)
        stats, folded = self._fold(opened, waits or {})
        locks = {key: stats[key].to_dict() for key in sorted(stats)}
        totals = {name: sum(lock[name] for lock in locks.values())
                  for name in ("attempts", "commits", "aborts",
                               "cycles_lost", "cycles_committed",
                               "deferrals", "deferral_cycles")}
        totals["unclosed"] = len(opened)
        totals["commit_rate"] = round(
            totals["commits"] / totals["attempts"], 6) \
            if totals["attempts"] else 0.0
        return {
            "schema": PROFILE_SCHEMA,
            "locks": locks,
            "conflicts": {
                str(victim): {str(aborter): count
                              for aborter, count in sorted(row.items())}
                for victim, row in sorted(self.matrix.items())},
            "chains": [dict(chain) for chain in self.chains],
            "folded": folded,
            "totals": totals,
        }


class DeferralTally:
    """One machine's deferrals, tallied once for every observer.

    :meth:`of` subscribes one post-``defer`` and one ``service``
    handler per machine and hands the same tally to each observer that
    asks, so metrics and the lock profiler share two calls per
    deferral, and either attaches alone.  A push records the queue
    depth and the holder's lock (read off its checkpoint); a service
    closes the request's entry.  A request may be deferred more than
    once before its service: ``latencies`` measure from the first push
    (``defer.latency``), ``waits`` from the last, keyed by the holder's
    lock at that push (the profile's ``defer_wait``).
    """

    def __init__(self, processors: list) -> None:
        self._processors = processors
        #: req_id -> (first push, last push, holder lock line then).
        self._open: dict[int, tuple[int, int, Optional[int]]] = {}
        #: queue depth after a push -> pushes.
        self.depths: dict[int, int] = {}
        #: queue depth after the last push.
        self.last_depth = 0
        #: cycles from first push to service -> services.
        self.latencies: dict[int, int] = {}
        #: (holder lock line, cycles from last push to service) ->
        #: services.
        self.waits: dict[tuple[Optional[int], int], int] = {}

    @classmethod
    def of(cls, machine: "Machine") -> "DeferralTally":
        """``machine``'s tally, subscribed on first use."""
        taps = machine.taps
        for fn in taps.defer_post:
            tally = getattr(fn, "__self__", None)
            if isinstance(tally, cls):
                return tally
        tally = cls(machine.processors)
        taps.subscribe(tally.on_defer, "defer", post=True)
        taps.subscribe(tally.on_service, "service")
        return tally

    def on_defer(self, time: int, cpu: int, kind: str, args: tuple,
                 obj: object) -> None:
        """After a deferral: the request is in the holder's queue."""
        depth = self.last_depth = len(obj.deferred)
        depths = self.depths
        depths[depth] = depths.get(depth, 0) + 1
        checkpoint = self._processors[cpu].spec.checkpoint
        lock_line = (line_of(checkpoint.elisions[0].lock_addr)
                     if checkpoint is not None else None)
        req_id = args[0].req_id
        opened = self._open.get(req_id)
        self._open[req_id] = (time if opened is None else opened[0], time,
                              lock_line)

    def on_service(self, time: int, cpu: int, kind: str, args: tuple,
                   obj: object) -> None:
        if not self._open:
            return
        opened = self._open.pop(args[0].req_id, None)
        if opened is not None:
            first, last, lock_line = opened
            _tally(self.latencies, time - first)
            _tally(self.waits, (lock_line, time - last))


class LockProfiler:
    """The live per-lock contention profiler.

    Attach before ``run_workload`` (gated on ``config.metrics``, same
    as :class:`~repro.obs.collect.MachineMetrics`); call
    :meth:`snapshot` after the run, before or after :meth:`publish`,
    as often as needed.  Being a pure tap observer, it cannot move the
    schedule: profiler-on and profiler-off runs are bit-identical.

    It takes one call per closed transaction.  A transaction's begin --
    start time, root lock and pc, attempt number -- is what its
    processor's :class:`~repro.cpu.checkpoint.SpeculationCheckpoint`
    holds from ``txn-begin`` until the transaction closes, so the
    profiler reads it there on ``txn-commit`` or ``misspec`` (whose
    payload names the conflicting line and the aborter) and at
    :meth:`snapshot` for the transactions still open.  ``terminate`` clears a checkpoint without
    a ``misspec``; the processor-initiated ``abort`` tap that precedes
    it hands the profiler the checkpoint, which stays open, as it does
    in the log.  Deferral waits come from the machine's
    :class:`DeferralTally`.
    """

    def __init__(self) -> None:
        self.builder = ProfileBuilder()
        self._processors: list = []
        self._deferrals: Optional[DeferralTally] = None
        #: cpu -> the checkpoint of a processor-initiated abort, until
        #: its misspec (never, for a terminated thread).
        self._aborting: dict[int, object] = {}

    def attach(self, machine: "Machine") -> "LockProfiler":
        self._processors = machine.processors
        self._deferrals = DeferralTally.of(machine)
        subscribe = machine.taps.subscribe
        subscribe(self.on_txn_commit, "txn-commit")
        subscribe(self.on_abort, "abort")
        subscribe(self.on_misspec, "misspec")
        return self

    # ``obj`` is the processor for txn-commit and misspec, the cache
    # controller for abort.
    def on_txn_commit(self, time: int, cpu: int, kind: str, args: tuple,
                      obj: object) -> None:
        checkpoint = obj.spec.checkpoint
        if checkpoint is not None:
            # _root_of and _tally written out: this runs once per
            # committed transaction, the default path's commonest call.
            root = checkpoint.elisions[0]
            key = (line_of(root.lock_addr), root.pc, checkpoint.attempts,
                   time - checkpoint.start_time)
            commits = self.builder.commits
            commits[key] = commits.get(key, 0) + 1

    def on_abort(self, time: int, cpu: int, kind: str, args: tuple,
                 obj: object) -> None:
        checkpoint = self._processors[cpu].spec.checkpoint
        if checkpoint is not None:
            self._aborting[cpu] = checkpoint

    def on_misspec(self, time: int, cpu: int, kind: str, args: tuple,
                   obj: object) -> None:
        if self._aborting:
            self._aborting.pop(cpu, None)
        checkpoint = obj.spec.checkpoint
        if checkpoint is None:
            return
        self.builder.abort(time, cpu, checkpoint.start_time,
                           *_root_of(checkpoint), args[0],
                           args[1] or None, args[2])

    def snapshot(self) -> dict:
        """The profile of the closed transactions, the ones still open
        on the machine and the machine's serviced deferrals."""
        opened = dict(self._aborting)
        for cpu, processor in enumerate(self._processors):
            if processor.spec.checkpoint is not None:
                opened[cpu] = processor.spec.checkpoint
        return self.builder.snapshot(
            tuple(_root_of(checkpoint) for checkpoint in opened.values()),
            self._deferrals.waits if self._deferrals is not None else None)

    def publish(self, registry: "MetricsRegistry",
                snap: Optional[dict] = None) -> None:
        """Publish aggregate profile families into an obs registry so
        they ride the existing OpenMetrics export.
        Pass the run's :meth:`snapshot` as ``snap`` to publish from it
        rather than build another.  The counters are set, not added
        to, so publishing twice leaves the same values."""
        if snap is None:
            snap = self.snapshot()
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
