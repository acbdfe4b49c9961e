"""Speculative Lock Elision and transaction lifecycle control.

SLE (the paper's enabling mechanism) watches the dynamic instruction
stream for *silent store pairs*: a store-conditional that would flip a
lock from its free value, predicted to be undone by a later store writing
the free value back.  When the predictor is confident, the acquire store
is elided -- never issued, the lock line stays shared -- and the processor
enters speculative lock-free transaction mode.  The matching release store
is absorbed and triggers the atomic commit.

:class:`SpeculationManager` owns that lifecycle for one processor:

* elision decisions (per-PC confidence, nesting up to the configured
  depth, treat-inner-lock-as-data beyond it);
* restart policy -- plain SLE retries up to a threshold then *suppresses*
  the next elision so the lock is acquired for real; TLR retries forever
  on data conflicts (timestamps resolve them) and suppresses only on
  resource limits;
* TLR timestamp management -- one timestamp per transaction, retained
  across conflict restarts, advanced only on successful commit
  (Section 2.1.2's rules, via :class:`TimestampAuthority`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cpu.checkpoint import ElisionRecord, SpeculationCheckpoint
from repro.cpu.isa import StoreConditional, Write
from repro.cpu.predictor import StorePairPredictor
from repro.tlr.timestamp import TimestampAuthority
from repro.harness.config import SystemConfig
from repro.sim.stats import CpuStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.processor import Processor


class SpeculationManager:
    """Per-processor elision/transaction controller."""

    def __init__(self, processor: "Processor", config: SystemConfig,
                 stats: CpuStats):
        self.processor = processor
        self.config = config
        self.stats = stats
        self.tlr = config.scheme.is_tlr
        self.enabled = config.scheme.speculates
        self.predictor = StorePairPredictor(
            entries=config.spec.store_pair_predictor_entries, tlr=self.tlr)
        self.authority = TimestampAuthority(processor.cpu_id)
        self.checkpoint: Optional[SpeculationCheckpoint] = None
        #: Mirror of ``checkpoint is not None``, kept as a plain
        #: attribute because the processor consults it on every memory
        #: operation and a property costs a Python call per read.
        self.active = False
        self._suppress_next = False
        self._attempts = 0

    # ------------------------------------------------------------------
    # Elision (transaction start / nesting)
    # ------------------------------------------------------------------
    def try_elide(self, op: StoreConditional, free_value: int,
                  cs_depth: int) -> bool:
        """Decide whether to elide this candidate acquire store.

        Returns True when the store was elided (the processor reports SC
        success without writing).  False means the store must execute for
        real -- either speculation is off, confidence is low, the nesting
        budget is exhausted (inner lock treated as data), or a fallback
        was requested after a failure.
        """
        if not self.enabled:
            return False
        checkpoint = self.checkpoint
        if checkpoint is not None:
            # Nested elision inside an ongoing transaction.
            if checkpoint.nest_level >= self.config.spec.elision_depth:
                return False  # treat the inner lock as ordinary data
            checkpoint.elisions.append(ElisionRecord(
                op.addr, free_value, op.value, op.pc, cs_depth))
            return True
        if self._suppress_next:
            self._suppress_next = False
            return False
        if not self.predictor.should_elide(op.pc):
            return False
        ts = self.authority.begin() if self.tlr else None
        self._attempts += 1
        self.checkpoint = SpeculationCheckpoint(
            self.processor.sim.now, ts, cs_depth,
            [ElisionRecord(op.addr, free_value, op.value, op.pc, cs_depth)],
            self._attempts)
        self.active = True
        self.stats.elisions_started += 1
        self.processor.controller.enter_speculation(ts)
        return True

    # ------------------------------------------------------------------
    # Release absorption (transaction end)
    # ------------------------------------------------------------------
    def absorbs_release(self, op: Write) -> bool:
        """Check a store against the elision stack.

        The second half of a silent store pair -- a store returning the
        lock to its free value -- is absorbed; if it closes the outermost
        elision, the transaction commits.  A store to an elided lock with
        a *different* value breaks the silent-pair assumption and kills
        the speculation.  Store pairs nest, so only the innermost
        elision can match; the root's match commits with the root still
        on the stack, for :meth:`on_commit` to credit its pc.
        """
        checkpoint = self.checkpoint
        if checkpoint is None:
            return False
        elisions = checkpoint.elisions
        addr = op.addr
        top = elisions[-1]
        if top.lock_addr == addr and top.free_value == op.value:
            if len(elisions) == 1:
                self.processor.commit_transaction()
            else:
                elisions.pop()
            return True
        for record in elisions:
            if record.lock_addr == addr:
                # Non-silent store to an elided lock: elision assumption
                # broken.
                self.processor.resource_fallback("non-silent-pair")
                return False
        return False

    # ------------------------------------------------------------------
    # Outcome notifications (from the processor)
    # ------------------------------------------------------------------
    def on_commit(self) -> None:
        self.predictor.elision_succeeded(self.checkpoint.elisions[0].pc)
        if self.tlr:
            self.authority.commit()
            self.stats.timestamp_updates += 1
        self.checkpoint = None
        self.active = False
        self._attempts = 0
        self.stats.elisions_committed += 1

    def on_misspeculation(self, reason: str, resource: bool) -> int:
        """Record a failed attempt; returns the restart depth.

        Decides whether the *next* attempt should skip elision (acquire
        the lock for real): always after resource limits; after the retry
        threshold under plain SLE; never for TLR data conflicts.
        """
        checkpoint = self.checkpoint
        if checkpoint is None:
            return 0
        depth = checkpoint.root_depth
        self.predictor.elision_failed(checkpoint.elisions[0].pc, resource)
        if resource:
            self._suppress_next = True
            self.stats.lock_fallbacks += 1
            if self.tlr:
                self.authority.abandon()
            self._attempts = 0
        elif not self.tlr:
            if self._attempts >= self.config.spec.sle_restart_threshold:
                self._suppress_next = True
                self.stats.lock_fallbacks += 1
                self._attempts = 0
        elif self.processor.controller.policy.should_fallback(
                self._attempts):
            # A contention policy without a progress guarantee (e.g.
            # requester-wins) bounds its losses: after K failed attempts
            # the lock is acquired for real.  The paper's timestamp
            # policies never take this branch -- TLR data conflicts keep
            # the timestamp and retry without limit.
            self._suppress_next = True
            self.stats.lock_fallbacks += 1
            self.authority.abandon()
            self._attempts = 0
        self.checkpoint = None
        self.active = False
        return depth
