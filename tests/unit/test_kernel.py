"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.sim.kernel import DeadlockError, Simulator, SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_cycle_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(7, fired.append, tag)
    sim.run()
    assert fired == list(range(5))


def test_now_advances_with_events():
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: seen.append(sim.now))
    sim.schedule(12, lambda: seen.append(sim.now))
    end = sim.run()
    assert seen == [5, 12]
    assert end == 12


def test_zero_delay_runs_after_current_cycle_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0, fired.append, "chained")

    sim.schedule(1, first)
    sim.schedule(1, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "chained"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(5, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []
    assert sim.events_fired == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(5, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    sim.run()


def test_events_fired_counts_live_events_only():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    dead = sim.schedule(2, lambda: None)
    sim.cancel(dead)
    sim.schedule(3, lambda: None)
    sim.run()
    assert sim.events_fired == 2


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(10, lambda: fired.append(("inner", sim.now)))

    sim.schedule(3, outer)
    sim.run()
    assert fired == [("outer", 3), ("inner", 13)]


def test_run_until_pauses_and_resumes():
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, "early")
    sim.schedule(50, fired.append, "late")
    sim.run(until=10)
    assert fired == ["early"]
    sim.run()
    assert fired == ["early", "late"]


def test_max_cycles_overrun_raises():
    sim = Simulator(max_cycles=10)
    sim.schedule(100, lambda: None)
    with pytest.raises(SimulationError):
        sim.run()


def test_deadlock_detection_with_incomplete_actor():
    class Actor:
        done = False

        def __repr__(self):
            return "<stuck>"

    sim = Simulator()
    sim.add_actor(Actor())
    sim.schedule(1, lambda: None)
    with pytest.raises(DeadlockError, match="stuck"):
        sim.run()


def test_clean_finish_with_completed_actor():
    class Actor:
        done = False

    actor = Actor()
    sim = Simulator()
    sim.add_actor(actor)

    def finish():
        actor.done = True

    sim.schedule(4, finish)
    assert sim.run() == 4


def test_pending_excludes_cancelled():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    dead = sim.schedule(2, lambda: None)
    sim.cancel(dead)
    assert sim.pending() == 1


def test_arguments_passed_to_callback():
    sim = Simulator()
    got = []
    sim.schedule(1, lambda a, b: got.append((a, b)), 1, "two")
    sim.run()
    assert got == [(1, "two")]


def test_run_until_at_max_cycles_returns_for_resumption():
    """Regression: ``run(until=N)`` with ``N == max_cycles`` used to
    raise SimulationError instead of pausing -- an explicit ``until``
    is a pause request even at the budget boundary."""
    sim = Simulator(max_cycles=10)
    fired = []
    sim.schedule(5, fired.append, "early")
    sim.schedule(50, fired.append, "late")  # beyond the budget
    assert sim.run(until=10) == 10  # pauses instead of raising
    assert fired == ["early"]
    with pytest.raises(SimulationError):
        sim.run()  # resuming without a pause request overruns at 10


def test_run_until_past_max_cycles_still_raises():
    sim = Simulator(max_cycles=10)
    sim.schedule(100, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=11)


def test_choice_hook_reorders_same_cycle_events():
    sim = Simulator()
    fired = []
    # Reverse priority: later-scheduled events get lower prio values.
    order = iter([3, 2, 1])
    sim.set_choice_hook(lambda: next(order))
    for tag in "abc":
        sim.schedule(7, fired.append, tag)
    sim.run()
    assert fired == ["c", "b", "a"]


def test_choice_hook_ties_fall_back_to_fifo():
    sim = Simulator()
    fired = []
    sim.set_choice_hook(lambda: 0)
    for tag in range(4):
        sim.schedule(7, fired.append, tag)
    sim.run()
    assert fired == list(range(4))


def test_choice_hook_never_reorders_across_cycles():
    sim = Simulator()
    fired = []
    sim.set_choice_hook(lambda: 99)
    sim.schedule(5, fired.append, "early")
    sim.set_choice_hook(lambda: 0)
    sim.schedule(6, fired.append, "late")
    sim.run()
    assert fired == ["early", "late"]


def test_cancel_after_firing_is_a_no_op():
    """A handle outlives its event: cancelling it once fired must not
    touch a later event (a recycled handle would be that event)."""
    sim = Simulator()
    fired = []
    stale = sim.schedule(1, fired.append, "a")
    sim.run()
    sim.schedule(1, fired.append, "b")
    sim.cancel(stale)
    assert sim.pending() == 1
    sim.run()
    assert fired == ["a", "b"]
    assert sim.events_fired == 2


def test_pending_tracks_lazy_cancels():
    sim = Simulator()
    handles = [sim.schedule(t, lambda: None) for t in range(1, 6)]
    assert sim.pending() == 5
    for handle in handles[:3]:
        sim.cancel(handle)
    assert sim.pending() == 2
    sim.cancel(handles[0])  # idempotent: must not double-count
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0
    assert sim.events_fired == 2


class TestAgainstReferenceModel:
    """Property test: seeded random schedules -- nested scheduling,
    random cancels (repeated and stale ones included), choice-hook
    priorities and same-cycle ties -- fire exactly as a reference model
    that keeps the live ``(time, prio, seq)`` entries and fires the
    smallest."""

    @staticmethod
    def _drive(seed, with_hook):
        rng = random.Random(seed)
        hook_rng = random.Random(seed + 1000)
        sim = Simulator()
        prios = []     # what the choice hook returned, in call order

        def hook():
            prios.append(hook_rng.randrange(3))
            return prios[-1]

        if with_hook:
            sim.set_choice_hook(hook)
        now = [0]      # the model's clock: the last firing time
        live = {}      # the model: tag -> (time, prio, seq)
        handles = {}   # every handle ever returned, fired ones included
        fired = []

        def schedule(delay):
            tag = len(handles)
            handles[tag] = sim.schedule(delay, fire, tag, label=f"e{tag}")
            prio = prios[-1] if with_hook else 0
            live[tag] = (now[0] + delay, prio, tag)

        def fire(tag):
            assert min(live.values()) == (sim.now, live[tag][1], tag)
            del live[tag]
            now[0] = sim.now
            fired.append(tag)
            assert sim.pending() == len(live)
            while len(handles) < 96 and rng.random() < 0.6:
                schedule(rng.randrange(0, 4))
            if rng.random() < 0.4:
                victim = rng.randrange(len(handles))
                sim.cancel(handles[victim])
                live.pop(victim, None)
            assert sim.pending() == len(live)

        for _ in range(16):
            schedule(rng.randrange(0, 8))
        sim.run()
        return sim, fired, live

    @pytest.mark.parametrize("with_hook", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_kernel_matches_model(self, seed, with_hook):
        sim, fired, live = self._drive(seed, with_hook)
        assert len(fired) > 16  # nested scheduling happened
        assert not live
        assert sim.pending() == 0
        assert sim.events_fired == len(fired)
