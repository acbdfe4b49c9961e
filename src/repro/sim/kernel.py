"""Discrete-event simulation kernel.

The whole reproduction is event-driven rather than cycle-driven: every
latency-bearing action (a bus grant, a snoop broadcast, a data delivery, an
instruction block completing) is one scheduled event.  Time is measured in
processor clock cycles (the paper's target machine runs at 1 GHz, so one
cycle is one nanosecond, but nothing here depends on the wall-clock
interpretation).

The kernel deliberately knows nothing about coherence or processors; it only
orders callbacks.  Determinism matters for reproducibility: events scheduled
for the same cycle fire in scheduling order (a monotonically increasing
sequence number breaks ties), so a given seed always replays the exact same
interleaving.

Every experiment bottoms out in this loop, so it is also the hot path of
the whole reproduction.  Three allocation-level optimizations keep it
cheap without changing any observable ordering:

* **Event recycling.**  Fired (and reaped-cancelled) events go onto a
  free list and are reinitialized by the next :meth:`Simulator.schedule`
  instead of allocating a fresh object per event.
* **Lazy-cancel compaction.**  :meth:`Event.cancel` only marks the event
  dead; when dead events exceed both an absolute floor and half the heap,
  the queue is rebuilt without them.  (time, prio, seq) keys are unique,
  so re-heapifying cannot change pop order.
* **Hoisted hooks.**  The per-event trace check and heap accessors are
  bound once per :meth:`Simulator.run` call, and ``verbose_labels`` tells
  callers whether anyone (tracer or choice hook) will ever look at an
  event label, letting hot call sites skip f-string construction.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, Optional

# Lazy-cancel compaction fires when at least this many dead events are
# queued *and* they outnumber half the heap.
COMPACT_DEAD_MIN = 64


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class HandleLeakError(SimulationError):
    """Raised (in ``debug_handles`` mode only) when an Event is still
    referenced by someone after it fired.

    The free list recycles Event objects, so a handle is only valid
    until its event fires; a tap, tracer or timer holder that keeps the
    reference past that point will later observe the object
    reinitialized as an unrelated event.  This error names the event
    whose handle leaked so the offending holder can be found.
    """


class DeadlockError(SimulationError):
    """Raised when the event queue drains while registered actors are
    still incomplete.

    In a correct run the queue only drains after every thread program has
    finished.  An early drain means some component is waiting for an event
    that will never come -- the simulator equivalent of a hardware deadlock
    -- and the diagnostic message lists who was still blocked.
    """


class Event:
    """A scheduled callback.

    Events are cancellable: :meth:`cancel` marks the event dead and the
    kernel skips it when popped.  This is how spin-wait timeouts and
    superseded wakeups are handled without scrubbing the heap.

    ``prio`` orders events within a cycle ahead of the sequence number;
    it is 0 (pure FIFO) unless a schedule choice hook is installed.

    **Handle lifetime:** the kernel recycles Event objects through a free
    list, so a handle returned by :meth:`Simulator.schedule` is only valid
    until the event fires or is reaped.  Holders that may outlive their
    event must drop the reference once it has fired (the pattern used for
    pending-timer handles: the firing callback nulls the holder's field
    before anything else runs).
    """

    __slots__ = ("time", "prio", "seq", "fn", "args", "alive", "label",
                 "sim")

    def __init__(self, time: int, seq: int, fn: Callable[..., None],
                 args: tuple, label: str = "", prio: int = 0):
        self.time = time
        self.prio = prio
        self.seq = seq
        self.fn = fn
        self.args = args
        self.alive = True
        self.label = label
        self.sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.alive:
            self.alive = False
            sim = self.sim
            if sim is not None:
                sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.prio != other.prio:
            return self.prio < other.prio
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self.alive else " (cancelled)"
        name = self.label or getattr(self.fn, "__qualname__", str(self.fn))
        return f"<Event t={self.time} #{self.seq} {name}{state}>"


class Simulator:
    """The event queue and simulated clock.

    Components interact with the kernel through three calls:

    * :meth:`schedule` -- run a callback ``delay`` cycles from now;
    * :meth:`now` (property) -- the current simulated cycle;
    * :meth:`run` -- drain the queue until completion or a limit.

    Actors (typically processors) may register completion predicates via
    :meth:`add_actor`; :meth:`run` uses them to distinguish a clean finish
    from a deadlock.

    ``recycle_events`` and ``compact_dead_min`` expose the allocation
    optimizations for testing; both defaults are observationally pure
    (identical event order) and there is no reason to change them outside
    the kernel's own test suite.
    """

    def __init__(self, max_cycles: Optional[int] = None, *,
                 recycle_events: bool = True,
                 compact_dead_min: Optional[int] = COMPACT_DEAD_MIN,
                 debug_handles: bool = False):
        #: Heap of ``(time, prio, seq, event)`` entries: the key tuple
        #: is compared natively by heapq (no Python-level ``__lt__``
        #: per sift step), and seq uniqueness means the Event itself is
        #: never reached by a comparison.
        self._queue: list[tuple[int, int, int, Event]] = []
        self.now = 0
        self._seq = 0
        self._events_fired = 0
        self.max_cycles = max_cycles
        self._actors: list[Any] = []
        self._choice: Optional[Callable[[str], int]] = None
        self._trace: Optional[Callable[[int, str], None]] = None
        #: True when a tracer or choice hook may read event labels; hot
        #: call sites consult this to skip building descriptive labels.
        self.verbose_labels = False
        self._free: list[Event] = []
        self._recycle = recycle_events
        self._compact_dead_min = compact_dead_min
        self._dead = 0
        #: Pure observation hook ``fn(cycle, label)`` fired for every
        #: dispatched event.  Unlike :attr:`trace` it does NOT flip
        #: :attr:`verbose_labels`: consumers (the flight recorder) see
        #: the cheap low-cardinality labels, and attaching one cannot
        #: change what any call site computes -- the schedule with the
        #: hook on is bit-identical to the schedule with it off.
        self.on_dispatch: Optional[Callable[[int, str], None]] = None
        #: Handle-lifetime checking (see :class:`HandleLeakError`).
        #: When on, fired events are recycled *after* dispatch and their
        #: refcount is audited first -- slower, for tests only.
        self.debug_handles = debug_handles
        #: Observational compaction telemetry, published by repro.obs as
        #: ``sim.kernel.compactions`` (never part of any fingerprint).
        self.compactions = 0

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    # ``now`` -- the current simulated time in cycles -- is a plain
    # instance attribute written by the run loop, not a property: it is
    # read on every latency computation and a data-descriptor lookup
    # costs a Python call per access (same reasoning as the State
    # predicates in coherence.states).

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for reporting)."""
        return self._events_fired

    @property
    def trace(self) -> Optional[Callable[[int, str], None]]:
        """Raw per-event debug hook ``fn(cycle, label)``.

        Installing it (or a choice hook) flips :attr:`verbose_labels` so
        call sites start producing descriptive labels.  The hook binding
        is sampled at each :meth:`run` call, not per event.
        """
        return self._trace

    @trace.setter
    def trace(self, fn: Optional[Callable[[int, str], None]]) -> None:
        self._trace = fn
        self.verbose_labels = (self._trace is not None
                               or self._choice is not None)

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any,
                 label: str = "") -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        Returns the :class:`Event`, which the caller may cancel (the
        handle is valid until the event fires; see :class:`Event`).
        Delays must be non-negative; a zero delay runs after all events
        already scheduled for the current cycle (FIFO within a cycle).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        choice = self._choice
        prio = choice(label) if choice is not None else 0
        time = self.now + delay
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.prio = prio
            event.seq = self._seq
            event.fn = fn
            event.args = args
            event.alive = True
            event.label = label
        else:
            event = Event(time, self._seq, fn, args, label, prio=prio)
            event.sim = self
        heapq.heappush(self._queue, (time, prio, self._seq, event))
        return event

    def set_choice_hook(self,
                        fn: Optional[Callable[[str], int]]) -> None:
        """Install a schedule *choice point*: ``fn(label)`` is consulted
        once per :meth:`schedule` call and its return value becomes the
        event's intra-cycle priority (lower fires first; ties fall back
        to FIFO order).

        The default (no hook) is strict FIFO within a cycle.  The
        schedule explorer installs a seeded random hook here to perturb
        same-cycle interleavings -- every distinct seed then explores a
        different but fully reproducible legal ordering.
        """
        self._choice = fn
        self.verbose_labels = (self._trace is not None
                               or self._choice is not None)

    # ------------------------------------------------------------------
    # Lazy-cancel compaction
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._dead += 1
        threshold = self._compact_dead_min
        if (threshold is not None and self._dead >= threshold
                and 2 * self._dead >= len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without dead events.

        Heap pop order depends only on the (time, prio, seq) keys, which
        are unique per event, so re-heapifying the survivors yields the
        exact same firing sequence.  Compacted-away events are *not*
        recycled: their handles were cancelled externally and may still
        be held.
        """
        self._queue = [entry for entry in self._queue if entry[3].alive]
        heapq.heapify(self._queue)
        self._dead = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Actors and completion
    # ------------------------------------------------------------------
    def add_actor(self, actor: Any) -> None:
        """Register an object with a ``done`` attribute (or property).

        ``run()`` reports a deadlock if the queue drains while any actor's
        ``done`` is false.
        """
        self._actors.append(actor)

    def _incomplete_actors(self) -> list[Any]:
        return [a for a in self._actors if not getattr(a, "done", True)]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue.

        Runs until the queue is empty, until the optional ``until`` cycle,
        or until ``max_cycles``.  Returns the final simulated time.  Raises
        :class:`DeadlockError` if the queue empties with incomplete actors,
        and :class:`SimulationError` on a cycle-budget overrun (which in
        this codebase nearly always means livelock).  An explicit
        ``until`` always returns for resumption -- including the boundary
        case ``until == max_cycles`` -- because the caller asked for the
        pause; only running past ``max_cycles`` *without* a requested
        stop is the livelock diagnostic.
        """
        limit = self.max_cycles
        if until is not None:
            limit = until if limit is None else min(limit, until)
        queue = self._queue
        pop = heapq.heappop
        trace = self._trace
        dispatch = self.on_dispatch
        debug = self.debug_handles
        getrefcount = sys.getrefcount
        free = self._free if self._recycle else None
        fired = 0
        try:
            while queue:
                entry = pop(queue)
                event = entry[3]
                if not event.alive:
                    self._dead -= 1
                    if free is not None:
                        event.fn = event.args = None
                        free.append(event)
                    continue
                time = entry[0]
                if limit is not None and time > limit:
                    # Push it back: the caller may resume later.
                    heapq.heappush(queue, entry)
                    self.now = limit
                    if until is not None and (self.max_cycles is None
                                              or until <= self.max_cycles):
                        return self.now
                    raise SimulationError(
                        f"cycle budget exhausted at {limit} cycles with "
                        f"{len(queue)} pending events; "
                        f"blocked actors: {self._incomplete_actors()!r}")
                self.now = time
                fired += 1
                fn = event.fn
                args = event.args
                if trace is not None:  # pragma: no cover - debug hook
                    trace(time, event.label)
                if dispatch is not None:
                    dispatch(time, event.label)
                if free is not None and not debug:
                    # Recycle *before* dispatch so callbacks that schedule
                    # reuse this very object; the handle contract (valid
                    # only until the event fires) makes this safe.
                    event.fn = event.args = None
                    free.append(event)
                fn(*args)
                if debug:
                    # Handle audit: by the time dispatch returns, every
                    # legitimate holder has dropped its reference (the
                    # timer pattern nulls the field inside the firing
                    # callback).  Expected references here: the `event`
                    # local, the popped entry tuple, and getrefcount's
                    # own argument -- anything beyond that is a tap or
                    # tracer retaining a recyclable handle.
                    if getrefcount(event) > 3:
                        raise HandleLeakError(
                            f"event {event!r} still referenced after "
                            f"firing at t={time}; a hook or holder kept "
                            f"a recyclable handle")
                    if free is not None:
                        event.fn = event.args = None
                        free.append(event)
                if queue is not self._queue:  # compaction replaced it
                    queue = self._queue
        finally:
            self._events_fired += fired
        stuck = self._incomplete_actors()
        if stuck:
            raise DeadlockError(
                f"event queue drained at cycle {self.now} but "
                f"{len(stuck)} actor(s) incomplete: "
                + ", ".join(repr(a) for a in stuck))
        return self.now

    def pending(self) -> int:
        """Number of live events still queued (cancelled ones excluded)."""
        return sum(1 for entry in self._queue if entry[3].alive)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self.now} queued={len(self._queue)} "
                f"fired={self._events_fired}>")
