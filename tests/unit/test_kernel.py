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
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.events_fired == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(5, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_events_fired_counts_live_events_only():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    dead = sim.schedule(2, lambda: None)
    dead.cancel()
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
    dead.cancel()
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
    sim.set_choice_hook(lambda label: next(order))
    for tag in "abc":
        sim.schedule(7, fired.append, tag)
    sim.run()
    assert fired == ["c", "b", "a"]


def test_choice_hook_ties_fall_back_to_fifo():
    sim = Simulator()
    fired = []
    sim.set_choice_hook(lambda label: 0)
    for tag in range(4):
        sim.schedule(7, fired.append, tag)
    sim.run()
    assert fired == list(range(4))


def test_choice_hook_never_reorders_across_cycles():
    sim = Simulator()
    fired = []
    sim.set_choice_hook(lambda label: 99)
    sim.schedule(5, fired.append, "early")
    sim.set_choice_hook(lambda label: 0)
    sim.schedule(6, fired.append, "late")
    sim.run()
    assert fired == ["early", "late"]


# ----------------------------------------------------------------------
# Allocation optimizations: free-list recycling and lazy-cancel
# compaction must be observationally pure (identical firing order).
# ----------------------------------------------------------------------
class TestEventRecycling:
    def test_reaped_cancelled_event_is_reused(self):
        sim = Simulator()
        dead = sim.schedule(1, lambda: None)
        dead.cancel()
        sim.run()  # reaps the cancelled event onto the free list
        recycled = sim.schedule(5, lambda: None)
        assert recycled is dead
        assert recycled.alive and recycled.time == 5

    def test_fired_event_is_reused_by_callback_schedule(self):
        # Recycling happens *before* dispatch, so a callback that
        # schedules gets back the very object that just fired.
        sim = Simulator()
        children = []
        first = sim.schedule(1, lambda: children.append(
            sim.schedule(1, lambda: None)))
        sim.run()
        assert children[0] is first

    def test_recycling_disabled_allocates_fresh_objects(self):
        sim = Simulator(recycle_events=False)
        dead = sim.schedule(1, lambda: None)
        dead.cancel()
        sim.run()
        assert sim.schedule(5, lambda: None) is not dead

    def test_recycled_event_state_fully_reinitialized(self):
        sim = Simulator()
        fired = []
        dead = sim.schedule(1, fired.append, "stale-arg", label="old")
        dead.cancel()
        sim.run()
        reused = sim.schedule(2, fired.append, "fresh", label="new")
        assert reused is dead
        assert reused.label == "new"
        sim.run()
        assert fired == ["fresh"]


class TestCompaction:
    def test_compaction_drops_dead_events_from_queue(self):
        sim = Simulator(compact_dead_min=1)
        handles = [sim.schedule(t, lambda: None) for t in range(1, 5)]
        for handle in handles[:3]:
            handle.cancel()
        # The most aggressive threshold has compacted by now: no dead
        # event is left in the heap.
        assert len(sim._queue) == sim.pending() == 1

    def test_disabled_compaction_keeps_dead_events_queued(self):
        sim = Simulator(compact_dead_min=None)
        handles = [sim.schedule(t, lambda: None) for t in range(1, 5)]
        for handle in handles[:3]:
            handle.cancel()
        assert len(sim._queue) == 4 and sim.pending() == 1

    def test_pending_tracks_lazy_cancels(self):
        sim = Simulator(compact_dead_min=None)
        handles = [sim.schedule(t, lambda: None) for t in range(1, 6)]
        assert sim.pending() == 5
        for handle in handles[:3]:
            handle.cancel()
        assert sim.pending() == 2
        handles[0].cancel()  # idempotent: must not double-count
        assert sim.pending() == 2
        sim.run()
        assert sim.pending() == 0
        assert sim.events_fired == 2

    def test_compaction_counter_and_purge(self):
        sim = Simulator(compact_dead_min=1)
        handles = [sim.schedule(t, lambda: None) for t in range(1, 5)]
        for handle in handles[:3]:
            handle.cancel()
        assert sim.compactions > 0
        assert sim.pending() == 1
        sim.run()
        assert sim.events_fired == 1

    def test_compaction_preserves_time_prio_seq_order(self):
        def drive(sim):
            fired = []
            sim.set_choice_hook(lambda label: {"a": 2, "b": 1}.get(label, 0))
            handles = []
            for tag in "abcabcab":
                handles.append(
                    sim.schedule(3, fired.append, tag, label=tag))
            for tag in range(6):  # same-cycle FIFO tail
                handles.append(sim.schedule(7, fired.append, tag))
            for victim in handles[1::2]:
                victim.cancel()
            sim.run()
            return fired

        baseline = drive(Simulator(compact_dead_min=None))
        compacted = drive(Simulator(compact_dead_min=1))
        assert compacted == baseline
        assert baseline  # the scenario fired something


class TestReplayPurity:
    """Property test: a seeded random schedule -- nested scheduling,
    random cancels, same-cycle ties -- fires identically under every
    combination of the allocation flags."""

    @staticmethod
    def _drive(sim, seed):
        rng = random.Random(seed)
        trace = []
        pending = {}
        spawned = [0]

        def fire(tag):
            # Handle contract: drop the reference once fired.
            pending.pop(tag, None)
            trace.append((sim.now, tag))
            if pending and rng.random() < 0.4:
                victim = rng.choice(sorted(pending))
                pending.pop(victim).cancel()
            if spawned[0] < 64 and rng.random() < 0.7:
                spawned[0] += 1
                child = f"s{spawned[0]}"
                pending[child] = sim.schedule(
                    rng.randrange(0, 6), fire, child)

        for i in range(16):
            tag = f"i{i}"
            pending[tag] = sim.schedule(rng.randrange(0, 8), fire, tag)
        sim.run()
        return trace

    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedule_replays_identically_across_flags(self, seed):
        configs = [
            dict(),                                      # defaults
            dict(recycle_events=False),
            dict(compact_dead_min=1),
            dict(compact_dead_min=None),
            dict(recycle_events=False, compact_dead_min=1),
        ]
        traces = [self._drive(Simulator(**kwargs), seed)
                  for kwargs in configs]
        assert traces[0]  # non-trivial scenario
        for trace in traces[1:]:
            assert trace == traces[0]
