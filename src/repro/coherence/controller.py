"""Per-processor coherence controller.

This is where the paper's algorithm (Figure 3) actually runs: the
controller snoops the ordered bus, tracks outstanding misses, and -- when
its processor is executing an optimistic lock-free transaction -- performs
the TLR concurrency control *alongside* the unmodified MOESI protocol:

* incoming conflicting requests with a **later** timestamp are deferred
  (buffered in the deferred input queue, ownership retained, a marker sent
  to the requester);
* incoming conflicting requests with an **earlier** timestamp make the
  local transaction lose: deferred requests are serviced in order, the
  conflicting request is serviced, and the processor restarts;
* when a request cannot be answered with data immediately (the line's
  previous owner is itself waiting), the obligation chains behind our own
  miss, a **marker** teaches the requester its upstream neighbour, and
  **probes** carry conflicting timestamps upstream to break cyclic waits
  (Section 3.1.1, Figure 6);
* Section 3.2's single-block relaxation: an earlier-timestamp request may
  still be deferred when the transaction has exactly one block under
  conflict and no other miss outstanding (deadlock is impossible), unless
  configured strict (the TLR-strict-ts curve of Figure 9).

*Which* side of a conflict wins -- and how losers are paced -- is decided
by the configured :class:`~repro.policies.base.ContentionPolicy`
(``config.spec.contention_policy``); the controller owns all protocol
mechanics (deferred queue, markers/probes, NACK transport) and maps the
policy's verdicts onto them.  The default ``timestamp`` policy replays
the paper's rules bit-identically.

Plain SLE (no TLR) uses the same controller with ``tlr_enabled`` false:
conflicts simply trigger misspeculation and the request is serviced.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Optional

from repro.coherence.cache import CacheArray, CapacityError
from repro.coherence.messages import (MEMORY, BusRequest, Marker, Probe,
                                      ReqKind, Timestamp)
from repro.coherence.mshr import MshrFile
from repro.coherence.states import Line, State
from repro.policies import make_policy
from repro.policies.base import ConflictContext, PolicyDecision
from repro.tlr.deferral import ChainState, DeferredQueue
from repro.harness.config import SystemConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import CpuStats
from repro.sim.taps import MachineTaps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.coherence.bus import Bus
    from repro.coherence.datanet import DataNetwork


# How often a waiter re-champions its timestamp upstream (cycles).
PROBE_WATCHDOG_PERIOD = 300


class CacheController:
    """One processor's L1 cache + coherence controller + TLR logic."""

    def __init__(self, cpu_id: int, sim: Simulator, bus: "Bus",
                 datanet: "DataNetwork", config: SystemConfig,
                 stats: CpuStats, taps: MachineTaps):
        self.cpu_id = cpu_id
        self.sim = sim
        self.bus = bus
        self._controllers = bus.controllers
        # Markers and probes take one data-network hop but are not data
        # transfers, so the controller schedules them itself
        # (Machine always gives the network a perturber).
        self._ctl_latency = datanet.config.data_latency
        self._ctl_perturb = datanet.perturber.perturb
        self.config = config
        self.stats = stats
        self.cache = CacheArray(config.cache)
        self.cache.on_eviction = self._evict_dirty
        self.mshrs = MshrFile()
        self.deferred = DeferredQueue(capacity=max(8, 4 * config.num_cpus))
        # Hot-path constants, resolved once (each is an attribute chain
        # through config dataclasses otherwise).
        self._hit_latency = config.cache.hit_latency
        self._single_block_relax = config.spec.single_block_relaxation
        # Lines touched by the current transaction (addr -> Line).  Every
        # site that sets a line's access bits registers it here, so this
        # registry is always a superset of {lines with accessed set} and
        # replaces whole-cache scans at commit/abort time; clearing an
        # entry whose bits were already cleared individually is a no-op.
        self._spec_touched: dict[int, Line] = {}
        self.chains: dict[int, ChainState] = {}
        self.watchers: dict[int, list[Callable[[], None]]] = {}
        self.evicting: dict[int, BusRequest] = {}
        self.upgrade_violations: Counter = Counter()
        # Speculation state (driven by the processor / SLE module).
        self.speculating = False
        self.tlr_enabled = config.scheme.is_tlr
        self.current_ts: Optional[Timestamp] = None
        # Conflict-resolution policy (repro.policies); per-controller
        # because policies may carry per-processor state (priorities).
        self.policy = make_policy(config, cpu_id)
        # Callback into the processor, wired by the machine builder.
        self.on_misspeculation: Callable[[str, int], None] = \
            lambda reason, line: None
        self.on_conflict_ts: Callable[[Optional[Timestamp]], None] = \
            lambda ts: None
        # The machine's observation seam (repro.sim.taps).
        self.taps = taps
        # LL/SC link register.
        self._link: Optional[int] = None
        bus.attach(self)

    # ------------------------------------------------------------------
    # Processor-facing interface
    # ------------------------------------------------------------------
    def miss(self, line_addr: int, line: Optional[Line],
             need_writable: bool, on_effect: Callable[[Line], None],
             is_lock: bool = False,
             still_wanted: Optional[Callable[[], bool]] = None) -> None:
        """Start a miss the processor found by its one lookup of the
        line (``line`` is that lookup's result).

        ``on_effect`` is invoked synchronously at the instant the fill
        (or upgrade grant) arrives, which is the access's effect point,
        with the line the fill installed or the grant found.
        """
        # Single-block relaxation bookkeeping (Section 3.2): taking a new
        # miss while holding a relaxation-deferred earlier-timestamp
        # request would risk deadlock, so timestamp order is enforced
        # *now*: lose, release, restart.
        if self.speculating and self._must_release_before_miss(line_addr):
            self._handle_loss("relaxation-revoked", line_addr, None)
            return
        self.stats.l1_misses += 1
        pending = self.mshrs.get(line_addr)
        if pending is not None:
            # Merge: retry the access when the outstanding fill lands.
            pending.waiters.append(
                lambda _filled: self._retry_access(
                    line_addr, need_writable, on_effect, is_lock,
                    still_wanted))
            return
        kind = self._miss_kind(line, need_writable)
        ts = self.current_ts if self.speculating else None
        prio = self.policy.request_priority() if self.speculating else 0
        request = BusRequest(kind=kind, line=line_addr, requester=self.cpu_id,
                             ts=ts, is_lock=is_lock, prio=prio)
        if kind is ReqKind.UPG:
            self.stats.upgrades += 1
        mshr = self.mshrs.allocate(request, self.sim.now)
        mshr.in_txn = self.speculating
        mshr.waiters.append(on_effect)
        self.chains[line_addr] = ChainState()
        self.cache.pin(line_addr)
        self.bus.issue(request)
        if self.tlr_enabled:
            # Watch every miss, not just transactional ones: a restarted
            # transaction may merge onto a request issued outside the
            # transaction, and its priority must still be championed.
            self.sim.schedule(PROBE_WATCHDOG_PERIOD, self._probe_watchdog,
                              line_addr, request.req_id, label="probe-wd")

    def _probe_watchdog(self, line_addr: int, req_id: int) -> None:
        """Re-champion our own timestamp upstream while a transactional
        miss is outstanding.

        A single probe can be lost -- it may reach the deferring holder
        during the brief window of a restart, when its speculative state
        is cleared -- and a lost probe means an unbroken cyclic wait.
        Re-probing until the miss completes makes priority propagation
        self-healing.
        """
        mshr = self.mshrs.get(line_addr)
        if mshr is None or mshr.request.req_id != req_id:
            return
        if self.speculating and self.current_ts is not None:
            chain = self.chains.get(line_addr)
            if chain is not None and chain.upstream is not None:
                self._send_probe(chain.upstream, line_addr, self.current_ts,
                                 origin=self.cpu_id)
        self.sim.schedule(PROBE_WATCHDOG_PERIOD, self._probe_watchdog,
                          line_addr, req_id, label="probe-wd")

    def _retry_access(self, line_addr: int, need_writable: bool,
                      on_effect: Callable[[Line], None], is_lock: bool,
                      still_wanted: Optional[Callable[[], bool]]) -> None:
        """A merged waiter's turn: the fill it waited on may not be the
        permission it needs, so it looks again and hits or misses."""
        if still_wanted is not None and not still_wanted():
            return  # The access was squashed; don't issue a stale request.
        line = self.cache.lookup(line_addr)
        if line is not None and line.state.valid and (
                not need_writable or line.state.writable):
            self.stats.l1_hits += 1
            on_effect(line)
            return
        self.miss(line_addr, line, need_writable, on_effect, is_lock,
                  still_wanted)

    def _miss_kind(self, line: Optional[Line], need_writable: bool) -> ReqKind:
        if not need_writable:
            return ReqKind.GETS
        if line is not None and line.state in (State.SHARED, State.OWNED):
            return ReqKind.UPG
        return ReqKind.GETX

    def mark_accessed(self, line: Optional[Line], written: bool) -> None:
        """Set the transaction access bits of ``line``, the caller's
        lookup of it, at an access's effect point."""
        if not self.speculating or line is None:
            return
        line.accessed = True
        if written:
            line.spec_written = True
        self._spec_touched[line.addr] = line

    # -- spin-wait support ---------------------------------------------
    def watch(self, line_addr: int, callback: Callable[[], None]) -> None:
        """One-shot wakeup when the line is invalidated or refilled."""
        self.watchers.setdefault(line_addr, []).append(callback)

    def _wake_watchers(self, line_addr: int) -> None:
        if not self.watchers:
            return
        pending = self.watchers.pop(line_addr, None)
        if not pending:
            return
        for callback in pending:
            self.sim.schedule(0, callback, label="wake")

    # -- LL/SC link ----------------------------------------------------
    def set_link(self, line: Line) -> None:
        """Arm the link register on ``line``, an LL's fill -- unless it
        is no longer valid (the fill was invalidated in flight), in
        which case a conflicting store was ordered between the LL and
        now and the upcoming SC must fail."""
        self._link = line.addr if line.state.valid else None

    def link_valid(self, line_addr: int) -> bool:
        return self._link == line_addr

    def _clear_link(self, line_addr: int) -> None:
        if self._link == line_addr:
            self._link = None

    # -- speculation control -------------------------------------------
    def enter_speculation(self, ts: Optional[Timestamp]) -> None:
        """``start_defer``: the processor enters lock-free transaction
        mode.  ``ts`` is the TLR timestamp, or None under plain SLE."""
        if self.taps.txn_begin:
            self.taps.txn_begin.emit(self, ts)
        self.speculating = True
        self.current_ts = ts
        self._spec_touched.clear()

    def commit_speculation(self) -> None:
        """``end_defer`` on success: clear access bits, service waiters.

        The processor must have drained its write buffer into the value
        store *before* calling this, so deferred requesters observe
        post-commit values.
        """
        taps = self.taps
        if taps.commit:
            taps.commit.emit(self)
        self._exit_speculation()
        if taps.commit_post:
            taps.commit_post.emit(self)

    def abort_speculation(self) -> None:
        """Processor-initiated abort (resource fallback, deschedule):
        give up retained ownership, discard tracking state."""
        taps = self.taps
        if taps.abort:
            taps.abort.emit(self)
        if self.speculating:
            self._exit_speculation()
        if taps.abort_post:
            taps.abort_post.emit(self)

    def _exit_speculation(self) -> None:
        """``end_defer`` for commit and loss alike: clear the access
        bits of every registered line (``spec_written`` is never set
        without ``accessed``), leave speculation and service the
        deferred queue in arrival order."""
        touched = self._spec_touched
        for line in touched.values():
            line.accessed = False
            line.spec_written = False
        touched.clear()
        self.speculating = False
        self.current_ts = None
        # The queue's list, not its __bool__: it is nearly always empty.
        if self.deferred._entries:
            for entry in self.deferred.drain():
                self.sim.schedule(self._hit_latency,
                                  self._service_obligation, entry.request,
                                  label="svc-deferred")

    # ------------------------------------------------------------------
    # Conflict resolution (the heart of TLR)
    # ------------------------------------------------------------------
    def _verdict(self, request: BusRequest, line: Optional[Line],
                 at_snoop: bool = False,
                 observe: bool = True) -> Optional[PolicyDecision]:
        """The one conflict sequence: does ``request`` conflict with the
        running transaction, and if so, who wins?

        ``line`` is the event's one lookup of the requested line (each
        lookup bumps LRU).  Installed lines and misses issued from
        within the transaction both count as accessed.  None means no
        conflict.  A conflict first shows the requester's timestamp to
        the local clock (``on_conflict_ts``) unless ``observe`` is off;
        plain SLE then loses (ABORT_HOLDER), and TLR asks the policy.
        """
        if not self.speculating:
            return None
        accessed = bool(line and line.accessed)
        written = bool(line and line.spec_written)
        mshr = self.mshrs.get(request.line)
        if mshr is not None and mshr.in_txn:
            accessed = True
            written = written or mshr.request.kind.is_write
        if not (accessed and (request.kind.is_write or written)):
            return None
        if observe:
            self.on_conflict_ts(request.ts)
        if not self.tlr_enabled:
            # Plain SLE: a data conflict simply kills the speculation.
            return PolicyDecision.ABORT_HOLDER
        has_miss = self._other_txn_miss(request.line)
        return self.policy.resolve(ConflictContext(
            requester_ts=request.ts, holder_ts=self.current_ts,
            relaxation_ok=self._relaxation_ok(request.line, has_miss),
            requester_prio=request.prio, holder_has_miss=has_miss,
            at_snoop=at_snoop))

    def _other_txn_miss(self, line_addr: int) -> bool:
        """Is a miss issued inside the transaction outstanding for a
        line other than ``line_addr``?  One scan of the MSHR file."""
        for m in self.mshrs.entries_view():
            if m.in_txn and m.request.line != line_addr:
                return True
        return False

    def _relaxation_ok(self, line_addr: int, has_miss: bool) -> bool:
        """Section 3.2's single-block relaxation holds for ``line_addr``:
        it is enabled, no other transactional miss is outstanding
        (``has_miss``, from :meth:`_other_txn_miss`) and nothing is
        deferred for another line."""
        return (self._single_block_relax and not has_miss
                and self.deferred.only_line(line_addr))

    def _must_release_before_miss(self, new_line: int) -> bool:
        """Two situations force a release before taking a new miss:

        * the policy says so -- under the paper's timestamp policy, when
          the transaction still holds a relaxation-deferred request with
          an *earlier* timestamp: taking another miss could now
          deadlock, so strict timestamp order is enforced (Section 3.2);
        * the new miss targets a line we are ourselves deferring -- our
          own request would queue behind the very chain we are stalling
          (a self-wait cycle no probe can break, since the probe carries
          our own timestamp back to us).

        Every policy answers False for an empty deferred queue, so the
        early-out is behaviour-preserving.
        """
        deferred = self.deferred
        if not deferred:
            return False
        if deferred.has_line(new_line):
            return True
        return self.policy.must_release_before_miss(deferred,
                                                    self.current_ts)

    # ------------------------------------------------------------------
    # Bus-side handlers
    # ------------------------------------------------------------------
    # -- NACK-based retention (the alternative policy of Section 3) ----
    def would_nack(self, request: BusRequest) -> bool:
        """Snoop-time check under a NACK-retaining policy: refuse a
        conflicting request we would win, forcing the requester to
        retry.  Only data present in an exclusively-owned state can be
        retained this way."""
        if not self.policy.uses_nack:
            return False
        if not self.tlr_enabled or not self.speculating:
            return False
        line = self.cache.lookup(request.line)
        if line is None or line.state not in (State.MODIFIED,
                                              State.EXCLUSIVE):
            return False
        if self._verdict(request, line,
                         at_snoop=True) is not PolicyDecision.NACK_RETRY:
            return False  # no conflict, or the incoming request wins
        self.stats.nacks_sent += 1
        return True

    def handle_nack(self, request: BusRequest) -> None:
        """Our request was refused: back off and re-arbitrate."""
        taps = self.taps
        if taps.nack:
            taps.nack.emit(self, request)
        mshr = self.mshrs.get(request.line)
        if mshr is None or mshr.request.req_id != request.req_id:
            return
        self.stats.nacks_received += 1
        if taps.nacked:
            taps.nacked.emit(self, request)
        self.policy.on_nacked(request)
        mshr.ordered = False
        request.order_time = None
        self.sim.schedule(self.policy.nack_delay(request),
                          self._reissue_after_nack, request,
                          label="nack-retry")

    def _reissue_after_nack(self, request: BusRequest) -> None:
        mshr = self.mshrs.get(request.line)
        if mshr is None or mshr.request.req_id != request.req_id:
            return
        if self.speculating and mshr.in_txn:
            # Refresh the carried priority: it may have grown while the
            # request waited out the NACK.
            request.prio = self.policy.request_priority()
        self.bus.issue(request)

    def request_ordered(self, request: BusRequest, grant: State) -> None:
        """Our own request reached the global order point."""
        mshr = self.mshrs.get(request.line)
        if mshr is not None:
            mshr.ordered = True
        request.grant_state = grant

    def handle_forward(self, request: BusRequest) -> None:
        """The bus forwarded a request to us: we were the line's
        order-owner at the request's order point and must (eventually)
        supply data."""
        taps = self.taps
        if taps.forward:
            taps.forward.emit(self, request)
        line_addr = request.line
        mshr = self.mshrs.get(line_addr)
        line = self.cache.lookup(line_addr)
        have_data = line is not None and line.state.valid
        if mshr is not None and (mshr.ordered or not have_data):
            # The incoming request sits *behind* ours in coherence order
            # (or we simply have no data): it chains behind our miss and
            # is served only after our own fill is consumed.  Serving it
            # early from a leftover shared copy would reorder it ahead of
            # our exclusive request -- a lost update.
            self._chain_behind_miss(mshr, request, line)
            if taps.forward_post:
                taps.forward_post.emit(self, request)
            return
        # Remaining pending case: an *unordered* upgrade with valid data.
        # The incoming request was ordered first, so it must be served
        # from the current data now (our upgrade converts to a GETX at
        # its own order point).  Chaining it would deadlock the upgrade.
        wb = self.evicting.pop(line_addr, None)
        if wb is not None:
            # Our writeback raced with this request and lost: cancel the
            # writeback and supply the data ourselves.
            self.bus.cancel(wb)
        if not have_data:
            raise RuntimeError(
                f"cpu{self.cpu_id}: forwarded {request!r} for a line we "
                "neither hold nor await -- protocol invariant broken")
        self._resolve_obligation(request, line)
        if taps.forward_post:
            taps.forward_post.emit(self, request)

    def _resolve_obligation(self, request: BusRequest, line: Line) -> None:
        """Decide and act on an obligation we can satisfy with data;
        ``line`` is the event's lookup of it."""
        verdict = self._verdict(request, line)
        if verdict in (PolicyDecision.DEFER, PolicyDecision.NACK_RETRY):
            # NACK_RETRY past the order point, where a refusal is no
            # longer possible, falls back to deferral (the chained-request
            # corner of the NACK policy).  Only exclusively-owned blocks
            # are retainable (paper, Figure 3 caption); a non-exclusive
            # block's conflict cannot be masked, so the transaction loses.
            if line.state in (State.MODIFIED, State.EXCLUSIVE):
                self._defer(request)
                return
            verdict = PolicyDecision.ABORT_HOLDER
        if verdict is PolicyDecision.ABORT_HOLDER:
            self._handle_loss("conflict-lost", request.line, request.ts,
                              request.requester)
        self.sim.schedule(self._hit_latency, self._service_obligation,
                          request, label="svc")

    def _chain_behind_miss(self, mshr, request: BusRequest,
                           line: Optional[Line]) -> None:
        """A request arrived for a line whose fill we still await
        (``line`` is the forward's lookup of it): record the forward
        obligation, teach the requester its upstream neighbour (marker),
        and champion its timestamp upstream (probe)."""
        if any(s.kind.is_write for s in mshr.successors):
            raise RuntimeError(
                f"cpu{self.cpu_id}: forward after a GETX successor for "
                f"line {request.line:#x} -- bus order should prevent this")
        mshr.successors.append(request)
        self._send_marker(request)
        if request.ts is not None:
            chain = self.chains.get(request.line)
            if chain is not None and chain.queue_probe(request.ts):
                self._send_probe(chain.upstream, request.line, request.ts,
                                 request.requester)
        elif self.tlr_enabled:
            return  # an untimestamped request waits behind the chain
        # The chained request is judged without showing its timestamp to
        # the local clock (DESIGN.md §5, "One verdict per conflict").
        verdict = self._verdict(request, line, observe=False)
        if verdict is PolicyDecision.ABORT_HOLDER:
            # We already know we lose this line: restart now and pass
            # the data through when it arrives.
            mshr.pass_through = True
            self._handle_loss("conflict-lost-pending" if self.tlr_enabled
                              else "data-conflict-pending", request.line,
                              request.ts, request.requester)

    def _defer(self, request: BusRequest) -> None:
        taps = self.taps
        if taps.defer:
            taps.defer.emit(self, request)
        self.deferred.push(request, self.sim.now)
        self.cache.pin(request.line)
        self.stats.requests_deferred += 1
        if taps.deferred:
            taps.deferred.emit(self, request)
        self._send_marker(request)
        if taps.defer_post:
            taps.defer_post.emit(self, request)

    def _send_marker(self, request: BusRequest) -> None:
        target = self._controllers.get(request.requester)
        if target is not None:
            self.stats.markers_sent += 1
            delay = self._ctl_perturb(self._ctl_latency)
            self.sim.schedule(delay, target.handle_marker, request.line,
                              self.cpu_id, request.req_id, label="marker")

    def _send_probe(self, target_id: int, line_addr: int, ts: Timestamp,
                    origin: int) -> None:
        target = self._controllers.get(target_id)
        if target is None:
            return
        self.stats.probes_sent += 1
        delay = self._ctl_perturb(self._ctl_latency)
        self.sim.schedule(delay, target.handle_probe, line_addr, ts,
                          origin, label="probe")

    def handle_marker(self, line_addr: int, sender: int,
                      req_id: int) -> None:
        if self.taps.marker:
            self.taps.marker.emit(
                self, Marker(line=line_addr, sender=sender, req_id=req_id))
        chain = self.chains.get(line_addr)
        if chain is None:
            return  # The miss already completed; the chain is gone.
        for ts in chain.learn_upstream(sender):
            self._send_probe(sender, line_addr, ts, origin=-1)

    def handle_probe(self, line_addr: int, ts: Timestamp,
                     origin: int) -> None:
        """Forward a probe upstream if we are mid-chain, then let it
        challenge our transaction on a line it accessed, missed on or
        defers for.  Beaten, an owner restarts (``probe-lost``) and a
        mid-chain node restarts and passes the data through
        (``probe-lost-pending``) unless single-block relaxation holds.
        """
        taps = self.taps
        probe = None
        if taps.probe or taps.probe_post:
            # Only a subscriber sees the message object; both of its
            # points get the same one.
            probe = Probe(line=line_addr, ts=ts, origin=origin)
            if taps.probe:
                taps.probe.emit(self, probe)
        mshr = self.mshrs.get(line_addr)
        if mshr is not None:
            chain = self.chains.get(line_addr)
            if chain is not None and chain.queue_probe(ts):
                self._send_probe(chain.upstream, line_addr, ts, origin)
        if self.speculating and self.tlr_enabled:
            # The lookup bumps LRU and may promote a victim.  A deferred
            # line stays the transaction's even if a restart swept its
            # access bit.
            line = self.cache.lookup(line_addr)
            if ((line is not None and line.accessed)
                    or (mshr is not None and mshr.in_txn)
                    or self.deferred.has_line(line_addr)):
                self.on_conflict_ts(ts)
                if self.policy.probe_beats(ts, self.current_ts):
                    if mshr is None:
                        self.stats.probe_losses += 1
                        self._handle_loss("probe-lost", line_addr, ts,
                                          origin)
                    elif not self._relaxation_ok(
                            line_addr, self._other_txn_miss(line_addr)):
                        mshr.pass_through = True
                        self._handle_loss("probe-lost-pending", line_addr,
                                          ts, origin)
        if taps.probe_post:
            taps.probe_post.emit(self, probe)

    def handle_invalidation(self, request: BusRequest) -> None:
        """We hold a shared copy being invalidated.  Invalidations cannot
        be deferred (Section 3.1.2): speculating sharers misspeculate."""
        taps = self.taps
        if taps.invalidation:
            taps.invalidation.emit(self, request)
        line = self.cache.lookup(request.line)
        self._clear_link(request.line)
        if line is not None and line.state.valid:
            was_accessed = line.accessed
            line.state = State.INVALID
            line.clear_speculative()
            if self.speculating and was_accessed:
                self.upgrade_violations[request.line] += 1
                self.on_conflict_ts(request.ts)
                self._handle_loss("invalidated", request.line, request.ts,
                                  request.requester)
        else:
            mshr = self.mshrs.get(request.line)
            if mshr is not None and mshr.request.kind is ReqKind.GETS:
                mshr.fill_invalid = True
                if self.speculating and mshr.in_txn:
                    # The write was ordered between our transactional read
                    # and its fill: the read's value is dead on arrival,
                    # and invalidations cannot be deferred -- restart.
                    self.upgrade_violations[request.line] += 1
                    self.on_conflict_ts(request.ts)
                    self._handle_loss("invalidated-in-flight", request.line,
                                      request.ts,
                                      request.requester)
        if taps.line_state:
            taps.line_state.emit(self, request.line)
        self._wake_watchers(request.line)
        if taps.invalidation_post:
            taps.invalidation_post.emit(self, request)

    def upgrade_granted(self, request: BusRequest) -> None:
        """Our UPG completed at its order point (no data needed)."""
        mshr = self.mshrs.release(request.line)
        self.chains.pop(request.line, None)
        # Pinned since the miss, the shared copy is still cached.
        line = self.cache.lookup(request.line)
        line.state = State.MODIFIED
        if self.taps.line_state:
            self.taps.line_state.emit(self, request.line)
        self._finish_request(request, line, list(mshr.waiters),
                             list(mshr.successors),
                             pass_through=mshr.pass_through)

    def writeback_ordered(self, request: BusRequest) -> None:
        self.evicting.pop(request.line, None)
        self.bus.complete(request)

    def handle_data(self, request: BusRequest) -> None:
        """The fill for our outstanding request arrived."""
        taps = self.taps
        if taps.data:
            taps.data.emit(self, request)
        mshr = self.mshrs.get(request.line)
        if mshr is None or mshr.request.req_id != request.req_id:
            # Stale delivery (request superseded); ignore.
            if taps.data_post:
                taps.data_post.emit(self, request)
            return
        if taps.filled:
            taps.filled.emit(self, request)
        self.mshrs.release(request.line)
        self.chains.pop(request.line, None)
        grant = request.grant_state
        if grant is None:
            grant = State.SHARED
        if request.kind is ReqKind.GETX:
            grant = State.MODIFIED
        try:
            line = self.cache.install(request.line, grant)
        except CapacityError:
            self._resource_overflow(request.line)
            line = self.cache.install(request.line, grant)
        if mshr.fill_invalid:
            line.state = State.INVALID
        elif (self.speculating and mshr.in_txn
                and (request.ts is None or request.ts == self.current_ts)):
            # A transactional fill is part of the access set the moment it
            # arrives (the paper sets access bits at fetch): chained
            # successors must see the conflict even before the (possibly
            # restarted) program re-touches the line.
            line.accessed = True
            if request.kind is ReqKind.GETX:
                line.spec_written = True
            self._spec_touched[request.line] = line
        if taps.line_state:
            taps.line_state.emit(self, request.line)
        self._wake_watchers(request.line)
        self._finish_request(request, line, list(mshr.waiters),
                             list(mshr.successors),
                             pass_through=mshr.pass_through)
        if taps.data_post:
            taps.data_post.emit(self, request)

    def _finish_request(self, request: BusRequest, line: Line,
                        waiters: list[Callable[[Line], None]],
                        successors: list[BusRequest],
                        pass_through: bool) -> None:
        """Complete our request and hand ``line`` -- the line the fill
        installed or the upgrade found -- to its waiters.  No other line
        is looked up in this cache between that lookup and the waiters
        (``bus.complete`` only schedules), so they need no lookup of
        their own and LRU order is what it would be with one."""
        self.cache.unpin(request.line)
        self.bus.complete(request)
        if pass_through and successors:
            # We lost while the miss was in flight: hand the data straight
            # on *before* letting any local access at it.  The original
            # transaction's waiters are epoch-dead; a restarted attempt
            # may have merged a retry onto this MSHR, and it must observe
            # the line as gone (and re-request behind the new owner)
            # rather than peek at data that now belongs downstream.
            for successor in successors:
                self._service_obligation(successor)
            for waiter in waiters:
                waiter(line)
            return
        for waiter in waiters:
            waiter(line)
        for successor in successors:
            line = self.cache.lookup(request.line)
            if line is None or not line.state.valid:
                # Forced-invalid fill or an earlier obligation in this
                # batch already surrendered the line: pass data on.
                self.bus.deliver_data(successor, self.cpu_id)
                continue
            self._resolve_obligation(successor, line)

    # ------------------------------------------------------------------
    # Obligation service, loss handling, eviction
    # ------------------------------------------------------------------
    def _service_obligation(self, request: BusRequest) -> None:
        """Supply data for ``request`` and adjust our local state."""
        taps = self.taps
        if taps.service:
            taps.service.emit(self, request)
        line = self.cache.lookup(request.line)
        # The serve decision may have been made an event earlier, before
        # a restarted transaction re-touched the line.  Losing a line the
        # live transaction has accessed is a conflict loss and must
        # restart it, or two transactions would consume the same value.
        lose_after = (line is not None and line.state.valid
                      and self.speculating
                      and line.accessed
                      and (request.kind.is_write or line.spec_written))
        if line is not None and line.state.valid:
            if request.kind is ReqKind.GETX:
                line.state = State.INVALID
                line.clear_speculative()
                self._clear_link(request.line)
                self._wake_watchers(request.line)
            else:
                line.state = State.OWNED
        if self.mshrs.get(request.line) is None \
                and not self.deferred.has_line(request.line):
            # Keep the line pinned while further deferred entries for it
            # remain queued, so an eviction cannot race their service.
            self.cache.unpin(request.line)
        if taps.line_state:
            taps.line_state.emit(self, request.line)
        self.bus.deliver_data(request, self.cpu_id)
        if lose_after:
            self.on_conflict_ts(request.ts)
            self._handle_loss("conflict-at-service", request.line,
                              request.ts, request.requester)
        if taps.service_post:
            taps.service_post.emit(self, request)

    def _handle_loss(self, reason: str, line_addr: int,
                     incoming_ts: Optional[Timestamp],
                     aborter: Optional[int] = None) -> None:
        """We lost a conflict: give up retained ownership (service the
        deferred queue in order), clear speculative state, restart.

        ``aborter`` is the cpu id whose request/probe caused the loss.
        It is consumed only by ``loss`` subscribers (the abort-
        attribution profiler); nothing on the simulation path reads it.
        An unattributable loss (relaxation revocation) omits it, and
        its ``loss`` args are the first three only.
        """
        taps = self.taps
        args = ((reason, line_addr, incoming_ts) if aborter is None
                else (reason, line_addr, incoming_ts, aborter))
        if taps.loss:
            taps.loss.emit(self, *args)
        if self.speculating:
            self._exit_speculation()
            self.stats.misspeculations += 1
            self.on_misspeculation(reason, line_addr)
        if taps.loss_post:
            taps.loss_post.emit(self, *args)

    def _resource_overflow(self, line_addr: int) -> None:
        """A fill found no victim: drop speculation (resource fallback)."""
        if self.speculating:
            self.stats.resource_fallbacks += 1
            self.abort_speculation()
            self.on_misspeculation("capacity", line_addr)
        else:
            raise RuntimeError(
                f"cpu{self.cpu_id}: cache set unexpectedly unevictable for "
                f"line {line_addr:#x}")

    def _evict_dirty(self, line: Line) -> None:
        """A dirty line left the cache hierarchy: write it back."""
        if not line.state.dirty and line.state is not State.EXCLUSIVE:
            return
        request = BusRequest(kind=ReqKind.WB, line=line.addr,
                             requester=self.cpu_id)
        self.evicting[line.addr] = request
        self.stats.writebacks += 1
        self.bus.issue(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "TLR" if self.tlr_enabled else "SLE"
        spec = f" spec ts={self.current_ts}" if self.speculating else ""
        return (f"<CacheController cpu{self.cpu_id} {mode}{spec} "
                f"mshrs={len(self.mshrs)} deferred={len(self.deferred)}>")
