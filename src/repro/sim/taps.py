"""The machine's observation seam: declared emit points, per-kind subscribers.

Every observer -- metrics collector, lock profiler, flight recorder,
footprint recorder, invariant monitors, commit log -- sees the machine
through one :class:`MachineTaps`, which ``Machine.__init__`` hands to
the kernel, the interconnect, every cache controller and processor, and
the scheduler engine.  Each component fires its declared points by
name at the moment the event happens::

    if taps.defer:
        taps.defer.emit(self, request)

A :class:`Point` is the list of one kind's subscribers, falsy while
empty, so an unobserved point costs one truth test.  Observers never
replace component attributes, so a handle a component bound at
construction (a cached ``store.write``, the controller's
``on_misspeculation``) cannot route around them.

Subscribers are called ``fn(time, cpu, kind, args, obj)``: ``cpu`` is
the acting CPU (the requester for ``request``, the slot for scheduler
points, -1 for ``dispatch``), ``args`` the payload tuple and ``obj`` the
firing component.  Subscribers of one point run in subscription order
and must be pure observers -- no scheduling, no random draws, no machine
mutation -- which keeps observed runs bit-identical to bare ones.

The tap vocabulary (:data:`TAP_KINDS`) fires on handler entry, before
any early return, with the handler's positional arguments, except that
``probe`` and ``marker`` pass one :class:`~repro.coherence.messages.Probe`
or :class:`~repro.coherence.messages.Marker` built from them (only when
the point has subscribers; ``probe`` and its post point share it); the
kinds in :data:`POST_KINDS` fire again (``post=True``) on every return
path.  A tap's payload names its cache line and request id by the rules
of :func:`_line_of_args` and :func:`_ref_of_args`, which the flight
recorder applies to every tap it logs.  The other points, with their
``args``: ``issued``/``nacked``/``filled`` (request; a live miss left
for the bus, was refused, was filled),
``restart`` (reason, backoff, streak), ``line-state`` (line) after a
coherence state change, ``deferred`` (request) once queued,
``arch-read``/``plain-write`` (addr, value) for a speculative read
served by memory and a non-speculative store, ``write-set`` (write set)
at commit before the drain, ``sched`` (SCHED_IN/OUT/MIGRATE, thread),
``preempt`` (thread, ran, was_speculating), ``migrate`` (thread,
from_slot) and ``dispatch`` (event label).

The default observers (metrics and the lock profiler) subscribe to no
point that fires per control message (``marker``, ``probe``) or per
kernel event (``dispatch``): a count the machine already keeps in its
stats is read from there at the end of the run, not counted per emit.
"""

from __future__ import annotations

from typing import Callable, Optional

#: The tap vocabulary: the kinds the flight recorder logs.
TAP_KINDS = ("forward", "invalidation", "data", "marker", "probe", "nack",
             "defer", "service", "loss", "commit", "abort", "txn-begin",
             "txn-commit", "misspec", "request")

#: Tap kinds that also fire after the handler returns.
POST_KINDS = ("forward", "invalidation", "data", "probe", "service",
              "loss", "defer", "commit", "abort")

#: Tap kinds that carry a bare-``int`` cache line at a known position
#: in ``args`` (every other kind's line rides on a message object's
#: ``.line`` attribute).  ``loss`` (reason, line, ts, aborter) and
#: ``misspec`` (reason, line) both carry it second.
_INT_LINE_POS = {"loss": 1, "misspec": 1}


def _line_of_args(args, kind: Optional[str] = None) -> Optional[int]:
    """The cache line a tap payload names, if any."""
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
    (pairs a ``defer`` with its ``service`` and a ``request`` with its
    ``data``)."""
    for arg in args:
        req_id = getattr(arg, "req_id", None)
        if isinstance(req_id, int):
            return req_id
    return None


class Point(list):
    """One emit point: its subscribers, falsy while there are none."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def fire(self, time: int, cpu: int, args: tuple, obj: object) -> None:
        kind = self.kind
        for fn in self:
            fn(time, cpu, kind, args, obj)

    def emit(self, component, *args) -> None:
        """:meth:`fire` for a CPU-owned component (cache controller,
        processor): the time and cpu are its own (inlined, not a call)."""
        time = component.sim.now
        cpu = component.cpu_id
        kind = self.kind
        for fn in self:
            fn(time, cpu, kind, args, component)


class MachineTaps:
    """One machine's emit points, one attribute per point."""

    def __init__(self) -> None:
        # Tap vocabulary: cache controller.
        self.forward = Point("forward")
        self.invalidation = Point("invalidation")
        self.data = Point("data")
        self.marker = Point("marker")
        self.probe = Point("probe")
        self.nack = Point("nack")
        self.defer = Point("defer")
        self.service = Point("service")
        self.loss = Point("loss")
        self.commit = Point("commit")
        self.abort = Point("abort")
        self.txn_begin = Point("txn-begin")
        # Tap vocabulary: processor and bus.
        self.txn_commit = Point("txn-commit")
        self.misspec = Point("misspec")
        self.request = Point("request")
        # Post-call moments (POST_KINDS).
        self.forward_post = Point("forward")
        self.invalidation_post = Point("invalidation")
        self.data_post = Point("data")
        self.probe_post = Point("probe")
        self.service_post = Point("service")
        self.loss_post = Point("loss")
        self.defer_post = Point("defer")
        self.commit_post = Point("commit")
        self.abort_post = Point("abort")
        # Telemetry.
        self.issued = Point("issued")
        self.nacked = Point("nacked")
        self.filled = Point("filled")
        self.restart = Point("restart")
        # Invariant checks.
        self.line_state = Point("line-state")
        self.deferred = Point("deferred")
        # Footprint.
        self.arch_read = Point("arch-read")
        self.plain_write = Point("plain-write")
        self.write_set = Point("write-set")
        # Scheduler and kernel.
        self.sched = Point("sched")
        self.preempt = Point("preempt")
        self.migrate = Point("migrate")
        self.dispatch = Point("dispatch")
        self._pre: dict[str, Point] = {}
        self._post: dict[str, Point] = {}
        for name, point in vars(self).items():
            if isinstance(point, Point):
                table = self._post if name.endswith("_post") else self._pre
                table[point.kind] = point

    def subscribe(self, fn: Callable, *kinds: str,
                  post: bool = False) -> None:
        """Call ``fn`` at every firing of each of ``kinds`` (their
        post-call points with ``post``).  Subscribing a subscriber
        twice is a no-op, so re-attaching an observer never double
        counts.  An undeclared kind raises ``KeyError``."""
        table = self._post if post else self._pre
        for kind in kinds:
            point = table[kind]
            if fn not in point:
                point.append(fn)

    def unsubscribe(self, *fns: Callable) -> None:
        """Remove each of ``fns`` from every point it subscribed to."""
        for point in (*self._pre.values(), *self._post.values()):
            for fn in fns:
                if fn in point:
                    point.remove(fn)
