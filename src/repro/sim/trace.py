"""In-memory event tracing, kept for the benchmark's observer ladder.

A :class:`Tracer` records every tap of the machine's observation seam
(:mod:`repro.sim.taps`) as a :class:`TraceEvent` and pairs matching
begin/end instants into **span events** (:class:`SpanEvent`):

* ``txn`` -- txn-begin to commit/abort/loss (the outcome is the span's
  detail), one open span per CPU;
* ``defer`` -- a request entering a holder's deferred queue to its
  service at the holder's commit, keyed by request id;
* ``request`` -- a miss leaving for the bus to its data fill, keyed by
  request id (NACK reissues extend the original span).

A run's event history is its flight log (:mod:`repro.record`), which
:class:`~repro.record.timeline.Timeline`, ``repro replay`` and the
verifier read; nothing in the library attaches a Tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.taps import TAP_KINDS, _line_of_args, _ref_of_args

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
    """Records every tap event and span of one machine, unbounded."""

    def __init__(self):
        self.events: list[TraceEvent] = []
        self.spans: list[SpanEvent] = []
        self._machine: Optional["Machine"] = None
        # Open spans: txn keyed by cpu; defer/request keyed by req_id.
        self._open: dict[str, dict] = {"txn": {}, "defer": {},
                                       "request": {}}

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
        line = _line_of_args(args, kind)
        self._update_spans(time, cpu, kind, line, _ref_of_args(args),
                           reason)
        self.events.append(TraceEvent(time, cpu, kind, line,
                                      _describe(args)))

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

    def render(self) -> str:
        return "\n".join(event.render() for event in self.events)

    def counts(self) -> dict[str, int]:
        """Event-kind histogram."""
        histogram: dict[str, int] = {}
        for event in self.events:
            histogram[event.kind] = histogram.get(event.kind, 0) + 1
        return histogram


def _describe(args) -> str:
    parts = []
    for arg in args:
        if isinstance(arg, (str, int, tuple)) or hasattr(arg, "req_id"):
            parts.append(repr(arg))
    return " ".join(parts[:3])
