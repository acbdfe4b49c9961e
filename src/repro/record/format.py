"""The binary record-log format.

A record log is a compact, versioned, streamable capture of one
simulation: every kernel dispatch, every tapped controller/processor/bus
event, every coherence line-state change and every deferral-queue edit,
in exact execution order.  Because the simulator is deterministic, the
log doubles as a *proof of schedule*: re-running the embedded
:class:`~repro.harness.spec.RunSpec` with a recorder attached must
reproduce the log byte for byte (the replay-purity contract checked by
:mod:`repro.record.replay`).

Layout::

    magic   b"RPRL"
    u16     LOG_SCHEMA (little-endian)
    u32     header length
    bytes   header JSON (spec, locks, fingerprint version)
    ...     records, each: u8 opcode + LEB128-varint fields
    OP_END  final time, events fired, result fingerprint
    u32     CRC-32 of everything before it

Space comes from three choices: record times are delta-encoded against
a running clock shared by all record kinds (most deltas fit one byte);
strings (event labels, tap kinds) are interned -- an ``OP_STR``
definition is emitted inline on first use, so the table needs no
separate section and the stream stays single-pass; and every integer
field is an unsigned LEB128 varint.

Versioning: :data:`LOG_SCHEMA` names the format generation and
:data:`SCHEMA_HISTORY` must carry a migration note for every generation
ever shipped -- the ``replay-smoke`` CI job fails a schema bump that
forgets its note, and readers refuse logs from other generations
loudly rather than misparse them.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, Optional, Union

MAGIC = b"RPRL"

#: Format generation.  Bump whenever the record layout, the opcode set
#: or the header contract changes -- and add the migration note below.
LOG_SCHEMA = 3

#: One entry per format generation ever shipped: version -> what
#: changed and how to handle old logs.  CI gates on completeness.
SCHEMA_HISTORY: dict[int, str] = {
    1: "initial format: dispatch/tap/state/defer records, inline "
       "string interning, delta times, trailing CRC-32.",
    2: "added OP_SCHED (0x06): scheduler switch-in/out/migration "
       "records from repro.sched.  v1 logs contain no such records; "
       "re-record from the embedded spec to upgrade.",
    3: "added OP_TXN (0x07): normalized transaction begin/commit/abort "
       "records (lock line, elision-site pc, restart reason, aborter "
       "cpu) for post-hoc contention profiling, and the misspec tap "
       "now fires on controller-initiated losses too.  v2 logs carry "
       "neither; re-record from the embedded spec to upgrade.",
}

# Opcodes.
OP_STR = 0x01        # varint id, varint len, utf-8 bytes
OP_DISPATCH = 0x02   # varint dt, varint label_id
OP_TAP = 0x03        # varint dt, varint cpu+1, varint kind_id,
                     # varint line+1, varint ref
OP_STATE = 0x04      # varint dt, varint cpu+1, varint line,
                     # u8 state index, u8 access flags
OP_DEFER = 0x05      # varint dt, varint cpu+1, u8 op, varint depth
OP_SCHED = 0x06      # varint dt, u8 kind, varint slot+1, varint thread+1
OP_TXN = 0x07        # varint dt, u8 kind, varint cpu+1, then per kind:
                     #   begin:  varint lock_line+1, varint pc_id,
                     #           varint attempts
                     #   commit: (nothing further)
                     #   abort:  varint reason_id, varint conflict_line+1,
                     #           varint aborter+1
OP_END = 0xFF        # varint final_time, varint events_fired,
                     # u8 fp len, fingerprint bytes

#: ``OP_STATE`` state-index vocabulary (MOESI order plus "absent": the
#: line left this cache entirely).
STATE_NAMES = ("M", "O", "E", "S", "I", "-")
STATE_ABSENT = 5

#: ``OP_DEFER`` edit kinds.
DEFER_PUSH = 0
DEFER_DRAIN = 1

#: ``OP_SCHED`` kinds (mirrors repro.sched.engine.SCHED_*: a unit test
#: keeps the vocabularies in sync without an import cycle).
SCHED_KIND_NAMES = ("switch-in", "switch-out", "migrate")

#: ``OP_TXN`` kinds.
TXN_BEGIN = 0
TXN_COMMIT = 1
TXN_ABORT = 2
TXN_KIND_NAMES = ("begin", "commit", "abort")

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class LogFormatError(ValueError):
    """The bytes are not a record log this code can read."""


# ----------------------------------------------------------------------
# Varint helpers (unsigned LEB128)
# ----------------------------------------------------------------------
def _pack_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class LogWriter:
    """Streams records into ``stream`` (any ``.write(bytes)`` object).

    Not thread-safe; the simulator is single-threaded.  Callers must
    finish with :meth:`end` exactly once.
    """

    def __init__(self, stream, header: dict):
        self._stream = stream
        self._crc = 0
        self._strings: dict[str, int] = {}
        self._last_time = 0
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        self._emit(MAGIC + _U16.pack(LOG_SCHEMA)
                   + _U32.pack(len(header_bytes)) + header_bytes)

    def _emit(self, data: bytes) -> None:
        self._crc = zlib.crc32(data, self._crc)
        self._stream.write(data)

    def _delta(self, out: bytearray, time: int) -> None:
        _pack_varint(out, time - self._last_time)
        self._last_time = time

    def intern(self, text: str) -> int:
        ident = self._strings.get(text)
        if ident is None:
            ident = len(self._strings)
            self._strings[text] = ident
            raw = text.encode("utf-8")
            out = bytearray((OP_STR,))
            _pack_varint(out, ident)
            _pack_varint(out, len(raw))
            out += raw
            self._emit(bytes(out))
        return ident

    def dispatch(self, time: int, label_id: int) -> None:
        out = bytearray((OP_DISPATCH,))
        self._delta(out, time)
        _pack_varint(out, label_id)
        self._emit(bytes(out))

    def tap(self, time: int, cpu: int, kind_id: int,
            line: Optional[int], ref: Optional[int]) -> None:
        out = bytearray((OP_TAP,))
        self._delta(out, time)
        _pack_varint(out, cpu + 1)
        _pack_varint(out, kind_id)
        _pack_varint(out, 0 if line is None else line + 1)
        _pack_varint(out, 0 if ref is None else ref)
        self._emit(bytes(out))

    def state(self, time: int, cpu: int, line: int, state_index: int,
              flags: int) -> None:
        out = bytearray((OP_STATE,))
        self._delta(out, time)
        _pack_varint(out, cpu + 1)
        _pack_varint(out, line)
        out.append(state_index)
        out.append(flags)
        self._emit(bytes(out))

    def defer_edit(self, time: int, cpu: int, op: int, depth: int) -> None:
        out = bytearray((OP_DEFER,))
        self._delta(out, time)
        _pack_varint(out, cpu + 1)
        out.append(op)
        _pack_varint(out, depth)
        self._emit(bytes(out))

    def sched(self, time: int, kind: int, slot: int, thread: int) -> None:
        out = bytearray((OP_SCHED,))
        self._delta(out, time)
        out.append(kind)
        _pack_varint(out, slot + 1)
        _pack_varint(out, thread + 1)
        self._emit(bytes(out))

    def txn_begin(self, time: int, cpu: int, lock_line: Optional[int],
                  pc_id: int, attempts: int) -> None:
        out = bytearray((OP_TXN,))
        self._delta(out, time)
        out.append(TXN_BEGIN)
        _pack_varint(out, cpu + 1)
        _pack_varint(out, 0 if lock_line is None else lock_line + 1)
        _pack_varint(out, pc_id)
        _pack_varint(out, attempts)
        self._emit(bytes(out))

    def txn_commit(self, time: int, cpu: int) -> None:
        out = bytearray((OP_TXN,))
        self._delta(out, time)
        out.append(TXN_COMMIT)
        _pack_varint(out, cpu + 1)
        self._emit(bytes(out))

    def txn_abort(self, time: int, cpu: int, reason_id: int,
                  conflict_line: Optional[int], aborter: int) -> None:
        out = bytearray((OP_TXN,))
        self._delta(out, time)
        out.append(TXN_ABORT)
        _pack_varint(out, cpu + 1)
        _pack_varint(out, reason_id)
        _pack_varint(out, 0 if conflict_line is None else conflict_line + 1)
        _pack_varint(out, aborter + 1)
        self._emit(bytes(out))

    def end(self, final_time: int, events_fired: int,
            fingerprint: str) -> None:
        raw = fingerprint.encode("ascii")
        out = bytearray((OP_END,))
        _pack_varint(out, final_time)
        _pack_varint(out, events_fired)
        out.append(len(raw))
        out += raw
        self._emit(bytes(out))
        # The CRC trailer covers every byte before it, header included.
        self._stream.write(_U32.pack(self._crc))


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LogRecord:
    """One decoded record, with interned strings resolved.

    ``op`` is ``"dispatch"``/``"tap"``/``"state"``/``"defer"``/
    ``"sched"``/``"txn"``; the remaining fields are populated per kind
    (``None`` where a kind has no such field).  ``label`` carries the
    dispatch label or the tap kind; for state records it is the state
    letter.  Sched records reuse ``cpu`` for the CPU *slot* and ``ref``
    for the workload thread; ``label`` is the :data:`SCHED_KIND_NAMES`
    entry.  Txn records put the :data:`TXN_KIND_NAMES` index in
    ``flags``; ``label`` is the elision-site pc (begin) or restart
    reason (abort), ``line`` the lock line (begin) or conflicting line
    (abort), ``ref`` the attempt count (begin) or aborter cpu (abort,
    ``None`` = unknown).
    """

    op: str
    time: int
    cpu: Optional[int] = None
    label: Optional[str] = None
    line: Optional[int] = None
    ref: Optional[int] = None
    flags: Optional[int] = None
    depth: Optional[int] = None

    def render(self) -> str:
        where = f" line={self.line:#x}" if self.line is not None else ""
        who = f" cpu{self.cpu}" if self.cpu is not None else ""
        extra = ""
        if self.op == "state":
            bits = ""
            if self.flags:
                bits = ":" + ("a" if self.flags & 1 else "") + (
                    "w" if self.flags & 2 else "")
            extra = f" -> {self.label}{bits}"
            return f"{self.time:>9} {self.op:<9}{who}{where}{extra}"
        if self.op == "defer":
            extra = (f" {'push' if self.flags == DEFER_PUSH else 'drain'}"
                     f" depth={self.depth}")
            return f"{self.time:>9} {self.op:<9}{who}{extra}"
        if self.op == "sched":
            return (f"{self.time:>9} {self.op:<9} slot{self.cpu} "
                    f"{self.label} thread={self.ref}")
        if self.op == "txn":
            kind = TXN_KIND_NAMES[self.flags]
            if self.flags == TXN_BEGIN:
                extra = f" {self.label}{where} attempts={self.ref}"
            elif self.flags == TXN_ABORT:
                by = f" by cpu{self.ref}" if self.ref is not None else ""
                extra = f" {self.label}{where}{by}"
            return f"{self.time:>9} {self.op:<9}{who} {kind}{extra}"
        if self.ref:
            extra = f" #{self.ref}"
        return f"{self.time:>9} {self.op:<9}{who} {self.label}{where}{extra}"


@dataclass
class LogEnd:
    """The END summary record."""

    final_time: int
    events_fired: int
    fingerprint: str


@dataclass
class LogImage:
    """A fully decoded log."""

    header: dict
    records: list[LogRecord]
    end: LogEnd

    @property
    def spec_dict(self) -> dict:
        return self.header["spec"]


def read_header(data: bytes) -> tuple[dict, int]:
    """Decode and validate the file header; returns (header, offset of
    the first record)."""
    if data[:4] != MAGIC:
        raise LogFormatError("not a record log (bad magic)")
    (version,) = _U16.unpack_from(data, 4)
    if version != LOG_SCHEMA:
        note = SCHEMA_HISTORY.get(version, "unknown generation")
        raise LogFormatError(
            f"log schema v{version}, this reader speaks v{LOG_SCHEMA} "
            f"({note})")
    (header_len,) = _U32.unpack_from(data, 6)
    start = 10
    header = json.loads(data[start:start + header_len].decode("utf-8"))
    if not isinstance(header, dict):
        raise LogFormatError("log header is not a JSON object")
    return header, start + header_len


def iter_records(data: bytes, pos: int
                 ) -> Iterator[Union[LogRecord, LogEnd]]:
    """Stream-decode records from ``pos``; yields :class:`LogRecord`
    instances and finally one :class:`LogEnd`, which must end just
    before the CRC trailer.  A record cut short can also raise
    ``IndexError``, ``KeyError`` or ``ValueError``; :func:`load_log`
    reports those as :class:`LogFormatError`."""
    strings: dict[int, str] = {}
    last_time = 0
    limit = len(data) - 4  # trailing CRC
    while pos < limit:
        op = data[pos]
        pos += 1
        if op == OP_STR:
            ident, pos = _read_varint(data, pos)
            length, pos = _read_varint(data, pos)
            strings[ident] = data[pos:pos + length].decode("utf-8")
            pos += length
        elif op == OP_DISPATCH:
            dt, pos = _read_varint(data, pos)
            label_id, pos = _read_varint(data, pos)
            last_time += dt
            yield LogRecord(op="dispatch", time=last_time,
                            label=strings[label_id])
        elif op == OP_TAP:
            dt, pos = _read_varint(data, pos)
            cpu, pos = _read_varint(data, pos)
            kind_id, pos = _read_varint(data, pos)
            line, pos = _read_varint(data, pos)
            ref, pos = _read_varint(data, pos)
            last_time += dt
            yield LogRecord(op="tap", time=last_time, cpu=cpu - 1,
                            label=strings[kind_id],
                            line=line - 1 if line else None,
                            ref=ref or None)
        elif op == OP_STATE:
            dt, pos = _read_varint(data, pos)
            cpu, pos = _read_varint(data, pos)
            line, pos = _read_varint(data, pos)
            state_index = data[pos]
            flags = data[pos + 1]
            pos += 2
            last_time += dt
            yield LogRecord(op="state", time=last_time, cpu=cpu - 1,
                            label=STATE_NAMES[state_index], line=line,
                            flags=flags)
        elif op == OP_DEFER:
            dt, pos = _read_varint(data, pos)
            cpu, pos = _read_varint(data, pos)
            edit = data[pos]
            pos += 1
            depth, pos = _read_varint(data, pos)
            last_time += dt
            yield LogRecord(op="defer", time=last_time, cpu=cpu - 1,
                            flags=edit, depth=depth)
        elif op == OP_SCHED:
            dt, pos = _read_varint(data, pos)
            kind = data[pos]
            pos += 1
            slot, pos = _read_varint(data, pos)
            thread, pos = _read_varint(data, pos)
            last_time += dt
            yield LogRecord(op="sched", time=last_time, cpu=slot - 1,
                            label=SCHED_KIND_NAMES[kind], ref=thread - 1,
                            flags=kind)
        elif op == OP_TXN:
            dt, pos = _read_varint(data, pos)
            kind = data[pos]
            pos += 1
            cpu, pos = _read_varint(data, pos)
            last_time += dt
            if kind == TXN_BEGIN:
                line, pos = _read_varint(data, pos)
                pc_id, pos = _read_varint(data, pos)
                attempts, pos = _read_varint(data, pos)
                yield LogRecord(op="txn", time=last_time, cpu=cpu - 1,
                                label=strings[pc_id],
                                line=line - 1 if line else None,
                                ref=attempts, flags=kind)
            elif kind == TXN_COMMIT:
                yield LogRecord(op="txn", time=last_time, cpu=cpu - 1,
                                flags=kind)
            elif kind == TXN_ABORT:
                reason_id, pos = _read_varint(data, pos)
                line, pos = _read_varint(data, pos)
                aborter, pos = _read_varint(data, pos)
                yield LogRecord(op="txn", time=last_time, cpu=cpu - 1,
                                label=strings[reason_id],
                                line=line - 1 if line else None,
                                ref=aborter - 1 if aborter else None,
                                flags=kind)
            else:
                raise LogFormatError(f"unknown txn kind {kind}")
        elif op == OP_END:
            final_time, pos = _read_varint(data, pos)
            fired, pos = _read_varint(data, pos)
            fp_end = pos + 1 + data[pos]
            if fp_end != limit:
                raise LogFormatError(
                    "END record cut short" if fp_end > limit
                    else f"{limit - fp_end} byte(s) after the END record")
            fingerprint = data[pos + 1:fp_end].decode("ascii")
            yield LogEnd(final_time=final_time, events_fired=fired,
                         fingerprint=fingerprint)
            return
        else:
            raise LogFormatError(f"unknown opcode {op:#x} at byte {pos - 1}")
    raise LogFormatError("log truncated: no END record")


def load_log(source: Union[str, bytes, "os.PathLike"]) -> LogImage:
    """Read and fully decode a log from a path or raw bytes, verifying
    the CRC trailer.  Any malformed log, even one whose CRC matches,
    raises :class:`LogFormatError`."""
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    if len(data) < 14:
        raise LogFormatError("log truncated: shorter than any header")
    (stored_crc,) = _U32.unpack_from(data, len(data) - 4)
    actual_crc = zlib.crc32(data[:-4])
    if stored_crc != actual_crc:
        raise LogFormatError(
            f"CRC mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x} (corrupt or truncated log)")
    records: list[LogRecord] = []
    try:
        header, pos = read_header(data)
        for item in iter_records(data, pos):
            if isinstance(item, LogEnd):
                end = item
            else:
                records.append(item)
    except LogFormatError:
        raise
    except (IndexError, KeyError, ValueError) as exc:
        raise LogFormatError(
            f"malformed log: {type(exc).__name__}: {exc}") from exc
    return LogImage(header=header, records=records, end=end)


# ----------------------------------------------------------------------
# Divergence search
# ----------------------------------------------------------------------
@dataclass
class Divergence:
    """Where two logs first disagree."""

    index: int                      # record index of the first mismatch
    ours: Optional[LogRecord]       # None = log A ended early
    theirs: Optional[LogRecord]     # None = log B ended early
    context: list[LogRecord]        # the shared records just before it

    def render(self, context: int = 8) -> str:
        lines = [f"first divergence at record #{self.index}:"]
        for record in self.context[-context:]:
            lines.append("    " + record.render())
        lines.append("  A: " + (self.ours.render() if self.ours
                                else "<log ends>"))
        lines.append("  B: " + (self.theirs.render() if self.theirs
                                else "<log ends>"))
        return "\n".join(lines)


def first_divergence(a: LogImage, b: LogImage,
                     context: int = 16) -> Optional[Divergence]:
    """The first record where ``a`` and ``b`` differ (None if the
    record streams are identical -- headers and END summaries are not
    compared here)."""
    recent: list[LogRecord] = []
    for index in range(max(len(a.records), len(b.records))):
        ours = a.records[index] if index < len(a.records) else None
        theirs = b.records[index] if index < len(b.records) else None
        if ours != theirs:
            return Divergence(index=index, ours=ours, theirs=theirs,
                              context=list(recent))
        if ours is not None:
            recent.append(ours)
            if len(recent) > context:
                recent.pop(0)
    return None
