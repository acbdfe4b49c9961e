"""Committed-transaction footprint recording.

The serializability oracle needs, for every *committed* lock-free
transaction, the values it read (and where they came from), the write
set it published, and its commit instant -- plus the chronological log
of every non-transactional architectural write, so the whole run can be
replayed against a sequential reference.

:class:`FootprintRecorder` collects all of that **non-invasively** from
three of the processors' emit points on the machine's observation seam
(:mod:`repro.sim.taps`): ``arch-read`` (a speculative read served by
architectural memory), ``plain-write`` (a non-speculative store) and
``write-set`` (a commit's write set, before the drain).  An unobserved
point costs one truth test, and the recorded run is bit-identical to an
unrecorded one (the recorder only observes).

Epoch tagging gives failure atomicity for free: read observations carry
the processor's squash epoch, and a commit keeps only observations from
the committing attempt -- reads made by restarted attempts are dropped,
exactly as the hardware discards them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.coherence.messages import Timestamp
from repro.cpu.isa import line_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.machine import Machine


@dataclass
class ReadObservation:
    """One transactional read that hit architectural memory.

    ``writer`` / ``line_writer`` are the ids of the committed
    transactions whose write this observation read at word / cache-line
    granularity (None = the initial value or a non-transactional
    write).  ``era`` counts the non-transactional writes the line had
    seen by read time: plain writes (e.g. a lock-fallback critical
    section) reset provenance to None, so the era is what keeps two
    None-provenance reads on opposite sides of a plain write from
    looking like reads of the same version.  Reads satisfied by the
    processor's own write buffer are *not* recorded --
    read-your-own-writes is trivially consistent.
    """

    addr: int
    value: int
    line: int
    writer: Optional[int]
    line_writer: Optional[int]
    epoch: int
    time: int
    era: int = 0


@dataclass
class CommittedTxn:
    """One committed lock-free critical-section execution."""

    txn_id: int                     # dense commit-order index
    cpu: int
    ts: Optional[Timestamp]         # TLR timestamp (None under plain SLE)
    commit_time: int
    reads: list[ReadObservation]
    writes: dict[int, int]          # committed write set (addr -> value)
    #: written line -> plain-write era the line was in at commit time
    #: (see :class:`ReadObservation.era`).
    line_eras: dict = field(default_factory=dict)

    @property
    def read_lines(self) -> set[int]:
        return {obs.line for obs in self.reads}

    @property
    def written_lines(self) -> set[int]:
        return {line_of(addr) for addr in self.writes}


# Log entry tags: ("w", time, addr, value) for a plain architectural
# write, ("c", txn_id) for an atomic transaction commit.
PLAIN_WRITE = "w"
COMMIT = "c"


class FootprintRecorder:
    """Records commit-ordered transaction footprints from one machine."""

    def __init__(self):
        self.committed: list[CommittedTxn] = []
        self.log: list[tuple] = []
        self.plain_writes = 0
        # Per-cpu read observations of the *current* speculative attempt.
        self._pending: defaultdict[int, list[ReadObservation]] = \
            defaultdict(list)
        # addr / line -> txn id of the last committed transactional
        # writer, or None after a non-transactional write.
        self._last_writer: dict[int, Optional[int]] = {}
        self._last_line_writer: dict[int, Optional[int]] = {}
        # line -> number of plain writes seen (the line's current era).
        self._line_era: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, machine: "Machine") -> "FootprintRecorder":
        """Subscribe to the machine's footprint points (idempotent).
        Call before ``run_workload``."""
        taps = machine.taps
        taps.subscribe(self._on_read, "arch-read")
        taps.subscribe(self._on_commit, "write-set")
        taps.subscribe(self._on_plain_write, "plain-write")
        return self

    def _on_read(self, time, cpu, kind, args, processor) -> None:
        addr, value = args
        line = line_of(addr)
        pending = self._pending[cpu]
        if pending and pending[-1].epoch != processor.epoch:
            # A restart squashed the previous attempt's reads.
            pending.clear()
        pending.append(ReadObservation(
            addr=addr, value=value, line=line,
            writer=self._last_writer.get(addr),
            line_writer=self._last_line_writer.get(line),
            epoch=processor.epoch, time=time,
            era=self._line_era.get(line, 0)))

    def _on_commit(self, time, cpu, kind, args, processor) -> None:
        # Fired before the drain, which reads and writes nothing this
        # recorder tracks -- so provenance can move to the commit now.
        writes = args[0]
        epoch = processor.epoch
        reads = [obs for obs in self._pending[cpu] if obs.epoch == epoch]
        self._pending[cpu] = []
        txn = CommittedTxn(txn_id=len(self.committed), cpu=cpu,
                           ts=processor.controller.current_ts,
                           commit_time=time, reads=reads, writes=writes,
                           line_eras={
                               line_of(addr): self._line_era.get(
                                   line_of(addr), 0)
                               for addr in writes})
        self.committed.append(txn)
        self.log.append((COMMIT, txn.txn_id))
        for addr in writes:
            self._last_writer[addr] = txn.txn_id
            self._last_line_writer[line_of(addr)] = txn.txn_id

    def _on_plain_write(self, time, cpu, kind, args, processor) -> None:
        addr, value = args
        line = line_of(addr)
        self.plain_writes += 1
        self.log.append((PLAIN_WRITE, time, addr, value))
        self._last_writer[addr] = None
        self._last_line_writer[line] = None
        self._line_era[line] = self._line_era.get(line, 0) + 1
