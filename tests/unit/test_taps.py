"""Unit tests for the observation seam (``repro.sim.taps``)."""

from __future__ import annotations

import pytest

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.spec import RunSpec
from repro.obs import LockProfiler, MachineMetrics
from repro.record import FlightRecorder
from repro.sim.taps import POST_KINDS, MachineTaps, Point
from repro.sim.trace import Tracer
from repro.verify import FootprintRecorder
from repro.verify.monitors import MonitorSuite


class TestSeam:
    def test_point_is_falsy_until_subscribed(self):
        point = Point("defer")
        assert not point
        seen = []
        point.append(lambda *call: seen.append(call))
        assert point
        point.fire(7, 2, ("req",), "ctl")
        assert seen == [(7, 2, "defer", ("req",), "ctl")]

    def test_subscribe_is_idempotent_and_unsubscribe_removes(self):
        taps = MachineTaps()
        calls = []

        def fn(*call):
            calls.append(call)

        taps.subscribe(fn, "loss", "misspec")
        taps.subscribe(fn, "loss")
        assert list(taps.loss) == [fn] and list(taps.misspec) == [fn]
        assert not taps.loss_post
        taps.subscribe(fn, "loss", post=True)
        assert list(taps.loss_post) == [fn]
        taps.unsubscribe(fn)
        assert not taps.loss and not taps.misspec and not taps.loss_post

    def test_undeclared_kind_is_rejected(self):
        taps = MachineTaps()
        with pytest.raises(KeyError):
            taps.subscribe(print, "no-such-kind")
        with pytest.raises(KeyError):
            taps.subscribe(print, "marker", post=True)  # no post point

    def test_post_points_mirror_post_kinds(self):
        taps = MachineTaps()
        for kind in POST_KINDS:
            taps.subscribe(print, kind, post=True)

    def test_one_seam_per_machine(self):
        machine = Machine(SystemConfig(num_cpus=2))
        taps = machine.taps
        assert machine.sim.taps is taps and machine.bus.taps is taps
        assert all(c.taps is taps for c in machine.controllers)
        assert all(p.taps is taps for p in machine.processors)

    def test_every_point_has_a_shipped_subscriber(self):
        """No dead emit points: the shipped observers together consume
        every declared kind, pre and post."""
        spec = RunSpec(workload="single-counter",
                       config=SystemConfig(num_cpus=2, scheme=SyncScheme.TLR),
                       workload_args={"total_increments": 16})
        machine = Machine(spec.config)
        MachineMetrics().attach(machine)
        LockProfiler().attach(machine)
        Tracer().attach(machine)
        FlightRecorder(spec).attach(machine)
        FootprintRecorder().attach(machine)
        MonitorSuite(machine).attach()
        taps = machine.taps
        points = [value for value in vars(taps).values()
                  if isinstance(value, Point)]
        assert [p.kind for p in points if not p] == []

    def test_default_path_skips_per_message_points(self):
        """Metrics and the lock profiler (the default observers) take
        nothing per control message or per kernel event."""
        machine = Machine(SystemConfig(num_cpus=2))
        MachineMetrics().attach(machine)
        LockProfiler().attach(machine)
        taps = machine.taps
        assert not taps.probe and not taps.probe_post
        assert not taps.marker and not taps.dispatch

    def test_bare_machine_has_no_subscribers(self):
        machine = Machine(SystemConfig(num_cpus=2))
        assert not any(value for value in vars(machine.taps).values()
                       if isinstance(value, Point))
