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

The queue is one heap of entries, ``[time, prio, seq, fn, args, label]``.
The entry is also the handle :meth:`Simulator.schedule` returns:
:meth:`Simulator.cancel` sets its ``fn`` to None and the run loop skips
it when popped.  ``(time, prio, seq)`` is unique per entry, so heapq's
native list comparison never reaches ``fn``.
"""

from __future__ import annotations

import heapq
from time import monotonic
from typing import Any, Callable, Optional

from repro.sim.taps import MachineTaps

#: The run loop reads the wall clock once per this many dispatches
#: when a deadline is set (a power of two: the test is a bit mask).
DEADLINE_CHECK_EVERY = 1024


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class RunTimeout(SimulationError):
    """Raised when a run passes its wall-clock :attr:`Simulator.deadline`.

    The check lives in the run loop, so it fires in whatever thread
    runs the simulation; the harness turns the ``timeout`` of a run
    into the deadline.
    """


class DeadlockError(SimulationError):
    """Raised when the event queue drains while registered actors are
    still incomplete.

    In a correct run the queue only drains after every thread program has
    finished.  An early drain means some component is waiting for an event
    that will never come -- the simulator equivalent of a hardware deadlock
    -- and the diagnostic message lists who was still blocked.
    """


class Simulator:
    """The event queue and simulated clock.

    Components interact with the kernel through four calls:

    * :meth:`schedule` -- run a callback ``delay`` cycles from now;
    * :meth:`cancel` -- drop a scheduled callback before it fires;
    * :attr:`now` -- the current simulated cycle;
    * :meth:`run` -- drain the queue until completion or a limit.

    Actors (typically processors) may register completion predicates via
    :meth:`add_actor`; :meth:`run` uses them to distinguish a clean finish
    from a deadlock.

    ``taps`` is the machine's observation seam, whose ``dispatch``
    point fires per event (a standalone kernel gets a private one).

    ``deadline`` is an absolute :func:`time.monotonic` time; :meth:`run`
    raises :class:`RunTimeout` once it has passed (checked every
    :data:`DEADLINE_CHECK_EVERY` dispatches).  None, the default, runs
    without a wall-clock limit.
    """

    def __init__(self, max_cycles: Optional[int] = None, *,
                 taps: Optional[MachineTaps] = None):
        self._queue: list[list] = []
        self.now = 0
        self._seq = 0
        self._events_fired = 0
        self.max_cycles = max_cycles
        self._actors: list[Any] = []
        self._choice: Optional[Callable[[str], int]] = None
        #: True when a choice hook may read event labels; hot call sites
        #: consult this to skip building descriptive labels.
        self.verbose_labels = False
        #: ``taps.dispatch`` subscribers (the flight recorder) see the
        #: cheap labels: subscribing leaves :attr:`verbose_labels` alone,
        #: so the observed schedule is bit-identical to the bare one.
        self.taps = taps if taps is not None else MachineTaps()
        self.deadline: Optional[float] = None

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

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any,
                 label: str = "") -> list:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        Returns the queue entry, which the caller may pass to
        :meth:`cancel`.  Delays must be non-negative; a zero delay runs
        after all events already scheduled for the current cycle (FIFO
        within a cycle).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        choice = self._choice
        prio = choice(label) if choice is not None else 0
        entry = [self.now + delay, prio, self._seq, fn, args, label]
        heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, handle: list) -> None:
        """Keep a scheduled event from firing.  Cancelling twice, or
        after the event fired, does nothing."""
        handle[3] = None

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
        self.verbose_labels = fn is not None

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
        :class:`SimulationError` on a cycle-budget overrun (which in
        this codebase nearly always means livelock), and
        :class:`RunTimeout` once :attr:`deadline` has passed.  An explicit
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
        dispatch = self.taps.dispatch
        deadline = self.deadline
        check_mask = DEADLINE_CHECK_EVERY - 1
        fired = 0
        try:
            while queue:
                # entry: [time, prio, seq, fn, args, label]
                entry = pop(queue)
                fn = entry[3]
                if fn is None:  # cancelled
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
                if (deadline is not None and not fired & check_mask
                        and monotonic() > deadline):
                    heapq.heappush(queue, entry)
                    raise RunTimeout(
                        f"wall-clock deadline passed at cycle {self.now} "
                        f"after {self._events_fired + fired} events")
                self.now = time
                fired += 1
                if dispatch:
                    dispatch.fire(time, -1, (entry[5],), self)
                fn(*entry[4])
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
        return sum(1 for entry in self._queue if entry[3] is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self.now} queued={len(self._queue)} "
                f"fired={self._events_fired}>")
