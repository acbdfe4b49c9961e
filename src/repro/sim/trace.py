"""Structured event tracing.

A :class:`Tracer` records typed simulation events (bus transactions,
deferrals, losses, commits, restarts...) with timestamps, supports
filtering by line or CPU, and renders a readable interleaving -- the
tool that found most protocol bugs during this reproduction's own
development, packaged for users debugging their workloads.

Attach with :meth:`Tracer.attach`; it subscribes to the tap vocabulary
on the machine's observation seam (:mod:`repro.sim.taps`), whose emit
points cost one truth test each while tracing is off.  The flight
recorder (:mod:`repro.record`) subscribes to the same points, and each
subscriber keeps its own drop accounting.

Besides instant events the tracer pairs matching begin/end instants
into **span events** (:class:`SpanEvent`):

* ``txn`` -- txn-begin to commit/abort/loss (the outcome is the span's
  detail), one open span per CPU;
* ``defer`` -- a request entering a holder's deferred queue to its
  service at the holder's commit, keyed by request id;
* ``request`` -- a miss leaving for the bus to its data fill, keyed by
  request id (NACK reissues extend the original span).

``to_chrome_trace`` exports spans as Chrome/Perfetto *async* events
(``ph: "b"/"e"``) rather than strict ``B``/``E`` duration pairs:
defer-spans routinely outlive the txn-span that deferred them, and
async events do not require stack nesting per thread row.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.sim.taps import TAP_KINDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.machine import Machine


@dataclass
class TraceEvent:
    """One recorded event."""

    time: int
    cpu: int
    kind: str
    line: Optional[int]
    detail: str

    def render(self) -> str:
        where = f" line={self.line:#x}" if self.line is not None else ""
        return f"{self.time:>9}  cpu{self.cpu:<3} {self.kind:<18}{where}  {self.detail}"


@dataclass
class SpanEvent:
    """A paired begin/end duration (txn, defer, request)."""

    begin: int
    end: int
    cpu: int
    kind: str
    line: Optional[int]
    detail: str

    @property
    def duration(self) -> int:
        return self.end - self.begin

    def render(self) -> str:
        where = f" line={self.line:#x}" if self.line is not None else ""
        return (f"{self.begin:>9}..{self.end:<9} cpu{self.cpu:<3} "
                f"{self.kind:<10}{where}  {self.detail}")


#: Instant kinds that open a span: kind -> (span kind, key builder).
#: ``txn`` spans key on the CPU; ``defer``/``request`` spans key on the
#: globally unique request id carried by the triggering message.
_SPAN_OPENERS = {"txn-begin": "txn", "defer": "defer", "request": "request"}
#: Instant kinds that close a span: kind -> (span kind, outcome label).
_SPAN_CLOSERS = {"commit": ("txn", "commit"), "abort": ("txn", "abort"),
                 "loss": ("txn", "loss"), "service": ("defer", ""),
                 "data": ("request", "")}


class Tracer:
    """Records controller/processor events from one machine.

    ``capacity`` bounds the instant-event buffer.  The default policy
    drops the *newest* events once full (the historical behaviour,
    cheap and allocation-free); ``ring=True`` keeps the most recent
    ``capacity`` events instead -- the useful window when the bug is at
    the *end* of a long run.  Dropped events are tallied per kind in
    :attr:`dropped_by_kind` either way.
    """

    def __init__(self, capacity: int = 100_000, ring: bool = False):
        self.capacity = capacity
        self.ring = ring
        self.events = (deque(maxlen=capacity) if ring
                       else [])  # type: ignore[var-annotated]
        self.spans: list[SpanEvent] = []
        self.dropped = 0
        self.dropped_by_kind: dict[str, int] = {}
        self._machine: Optional["Machine"] = None
        # Open spans: txn keyed by cpu; defer/request keyed by req_id.
        self._open: dict[str, dict] = {"txn": {}, "defer": {},
                                       "request": {}}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, machine: "Machine") -> "Tracer":
        """Subscribe to the machine's tap vocabulary (idempotent).
        Call before ``run_workload``."""
        self._machine = machine
        machine.taps.subscribe(self.on_tap, *TAP_KINDS)
        return self

    def on_tap(self, time: int, cpu: int, kind: str, args: tuple,
               obj: object) -> None:
        """Subscriber entry point (see :mod:`repro.sim.taps`)."""
        # loss/misspec carry the restart reason first; threading it
        # through lets txn spans say *why* they aborted.
        reason = (args[0] if kind in ("loss", "misspec") and args
                  and isinstance(args[0], str) else None)
        self.record(time, cpu, kind, _line_of_args(args, kind),
                    _describe(args), ref=_ref_of_args(args),
                    reason=reason)

    # ------------------------------------------------------------------
    # Recording and querying
    # ------------------------------------------------------------------
    def record(self, time: int, cpu: int, kind: str,
               line: Optional[int], detail: str,
               ref: Optional[int] = None,
               reason: Optional[str] = None) -> None:
        # Span pairing happens regardless of the instant buffer's
        # capacity: spans are few (one per txn/defer/miss) and losing
        # their ends alongside dropped instants would corrupt durations.
        self._update_spans(time, cpu, kind, line, ref, reason)
        if len(self.events) >= self.capacity:
            self.dropped += 1
            if self.ring:
                evicted = self.events[0]  # pushed out by append below
                self.dropped_by_kind[evicted.kind] = \
                    self.dropped_by_kind.get(evicted.kind, 0) + 1
            else:
                self.dropped_by_kind[kind] = \
                    self.dropped_by_kind.get(kind, 0) + 1
                return
        self.events.append(TraceEvent(time, cpu, kind, line, detail))

    def _txn_key(self, cpu: int):
        """Span key for a txn opened on hardware context ``cpu``.

        With the preemptive scheduler multiplexing thread contexts over
        CPU slots (``threads_per_cpu > 1``), the key is ``(cpu,
        thread)`` so a span survives the context being descheduled and
        rescheduled between its begin and its close.  With one pinned
        thread per CPU (the default) the key stays the bare ``cpu``,
        preserving byte-identical span streams for existing runs.
        """
        machine = self._machine
        engine = getattr(machine, "sched_engine", None) \
            if machine is not None else None
        if engine is not None and engine.threads_per_cpu > 1:
            return (cpu, engine.thread_on_context(cpu))
        return cpu

    def _update_spans(self, time: int, cpu: int, kind: str,
                      line: Optional[int], ref: Optional[int],
                      reason: Optional[str] = None) -> None:
        span_kind = _SPAN_OPENERS.get(kind)
        if span_kind is not None:
            open_spans = self._open[span_kind]
            key = self._txn_key(cpu) if span_kind == "txn" else ref
            if key is not None or span_kind == "txn":
                open_spans.setdefault(key, (time, cpu, line))
            return
        if kind == "misspec" and reason is not None:
            # A resource fallback closes its span at the preceding
            # "abort" tap, before the restart reason exists; the
            # misspec that follows in the same cycle patches it in.
            for span in reversed(self.spans):
                if span.cpu != cpu or span.kind != "txn":
                    continue
                if span.end == time and span.detail == "abort":
                    span.detail = f"abort:{reason}"
                break
            return
        closer = _SPAN_CLOSERS.get(kind)
        if closer is None:
            return
        span_kind, outcome = closer
        key = self._txn_key(cpu) if span_kind == "txn" else ref
        opened = self._open[span_kind].pop(key, None)
        if opened is None:
            return  # no matching begin (e.g. abort outside speculation)
        begin, span_cpu, span_line = opened
        if span_kind == "txn" and outcome == "loss" and reason is not None:
            outcome = f"loss:{reason}"
        self.spans.append(SpanEvent(begin=begin, end=time, cpu=span_cpu,
                                    kind=span_kind,
                                    line=span_line if span_line is not None
                                    else line,
                                    detail=outcome))

    def filter(self, kinds: Optional[Iterable[str]] = None,
               cpu: Optional[int] = None,
               line: Optional[int] = None,
               since: int = 0, until: Optional[int] = None
               ) -> list[TraceEvent]:
        wanted = set(kinds) if kinds is not None else None
        out = []
        for event in self.events:
            if wanted is not None and event.kind not in wanted:
                continue
            if cpu is not None and event.cpu != cpu:
                continue
            if line is not None and event.line != line:
                continue
            if event.time < since:
                continue
            if until is not None and event.time > until:
                continue
            out.append(event)
        return out

    def filter_spans(self, kinds: Optional[Iterable[str]] = None,
                     cpu: Optional[int] = None,
                     line: Optional[int] = None,
                     since: int = 0, until: Optional[int] = None
                     ) -> list[SpanEvent]:
        """Like :meth:`filter`, over paired spans.  A span matches a
        time window when it *overlaps* it (a long transaction is part
        of the story of every window it crosses)."""
        wanted = set(kinds) if kinds is not None else None
        out = []
        for span in self.spans:
            if wanted is not None and span.kind not in wanted:
                continue
            if cpu is not None and span.cpu != cpu:
                continue
            if line is not None and span.line != line:
                continue
            if span.end < since:
                continue
            if until is not None and span.begin > until:
                continue
            out.append(span)
        return out

    def render(self, **filter_kwargs) -> str:
        lines = [event.render() for event in self.filter(**filter_kwargs)]
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped "
                         f"({'ring' if self.ring else 'tail'} mode, "
                         f"capacity {self.capacity})")
        return "\n".join(lines)

    def counts(self, dropped: bool = False) -> dict[str, int]:
        """Event-kind histogram (handy for assertions in tests).

        With ``dropped=True``, the histogram of events that fell to the
        capacity bound instead (per kind: the newest-dropped kinds in
        the default mode, the evicted-oldest kinds under ``ring``).
        """
        if dropped:
            return dict(self.dropped_by_kind)
        histogram: dict[str, int] = {}
        for event in self.events:
            histogram[event.kind] = histogram.get(event.kind, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome_trace(self, path: Union[str, "os.PathLike"],
                        **filter_kwargs) -> int:
        """Write the (optionally filtered) events as a ``chrome://tracing``
        / Perfetto JSON file and return the number of instant events
        written.

        Each simulation cycle maps to one microsecond on the viewer's
        timeline (the target machine runs at 1 GHz, so a cycle is really
        a nanosecond; the x1000 scale only renames the axis).  Every CPU
        appears as its own thread row, each recorded event as an instant
        event on that row, and each paired span (txn, defer, request) as
        an async begin/end bar, so a failing schedule from the explorer
        can be inspected visually -- load the file via
        ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        events = self.filter(**filter_kwargs)
        spans = self.filter_spans(**filter_kwargs)
        payload: list[dict] = []
        cpus = sorted({e.cpu for e in events} | {s.cpu for s in spans})
        for cpu in cpus:
            payload.append({"name": "thread_name", "ph": "M", "pid": 0,
                            "tid": cpu,
                            "args": {"name": f"cpu{cpu}"}})
        for event in events:
            args = {"detail": event.detail}
            if event.line is not None:
                args["line"] = f"{event.line:#x}"
            payload.append({"name": event.kind, "ph": "i", "s": "t",
                            "pid": 0, "tid": event.cpu,
                            "ts": event.time, "args": args})
        for index, span in enumerate(spans):
            name = (f"{span.kind}:{span.detail}" if span.detail
                    else span.kind)
            args = {}
            if span.line is not None:
                args["line"] = f"{span.line:#x}"
            common = {"name": name, "cat": span.kind, "id": index,
                      "pid": 0, "tid": span.cpu, "args": args}
            payload.append({**common, "ph": "b", "ts": span.begin})
            payload.append({**common, "ph": "e", "ts": span.end})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"traceEvents": payload,
                                 "displayTimeUnit": "ms"}))
        return len(events)


#: Tap kinds that carry a bare-``int`` cache line at a known position
#: in ``args`` (every other kind's line rides on a message object's
#: ``.line`` attribute).  ``loss`` (reason, line, ts, aborter) and
#: ``misspec`` (reason, line) both carry it second.
_INT_LINE_POS = {"loss": 1, "misspec": 1}


def _line_of_args(args, kind: Optional[str] = None) -> Optional[int]:
    for arg in args:
        line = getattr(arg, "line", None)
        if isinstance(line, int):
            return line
    # Bare ints are accepted only from positions known to carry a line
    # address: an arbitrary int argument (a timestamp component, a
    # count) must not be misattributed as a cache line.
    pos = _INT_LINE_POS.get(kind)
    if pos is not None and pos < len(args) and isinstance(args[pos], int):
        return args[pos]
    return None


def _ref_of_args(args) -> Optional[int]:
    """The request id carried by the first message argument, if any
    (used to pair defer/service and request/data spans)."""
    for arg in args:
        req_id = getattr(arg, "req_id", None)
        if isinstance(req_id, int):
            return req_id
    return None


def _describe(args) -> str:
    parts = []
    for arg in args:
        if isinstance(arg, (str, int, tuple)) or hasattr(arg, "req_id"):
            parts.append(repr(arg))
    return " ".join(parts[:3])
