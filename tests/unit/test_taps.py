"""Unit tests for the observation seam (``repro.sim.taps``)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.spec import RunSpec
from repro.obs import LockProfiler, MachineMetrics
from repro.record import FlightRecorder
from repro.sim.taps import (POST_KINDS, MachineTaps, Point, _line_of_args,
                             _ref_of_args)
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


class TestLineOfArgs:
    def test_message_line_attribute_wins(self):
        class Msg:
            line = 0x80
        assert _line_of_args((Msg(),)) == 0x80

    def test_bare_int_only_from_known_positions(self):
        # _handle_loss(reason, line, ts) / _on_misspeculation(reason,
        # line) carry the line at position 1.
        assert _line_of_args(("probe-lost", 0x40, (3, 1)),
                             kind="loss") == 0x40
        assert _line_of_args(("invalidated", 0x40),
                             kind="misspec") == 0x40
        # An int in an unknown hook must not be misread as a line.
        assert _line_of_args((7,), kind="nack") is None
        assert _line_of_args((7,)) is None
        assert _line_of_args(("reason",), kind="loss") is None

    def test_non_int_line_attribute_ignored(self):
        class Odd:
            line = "not-a-line"
        assert _line_of_args((Odd(),)) is None


class TestRefOfArgs:
    def test_first_message_req_id_wins(self):
        class Msg:
            def __init__(self, req_id):
                self.req_id = req_id
        assert _ref_of_args(("reason", Msg(7), Msg(9))) == 7

    def test_no_int_req_id_means_no_ref(self):
        class Odd:
            req_id = "not-an-id"
        # A bare int is never read as a request id.
        assert _ref_of_args((Odd(), 5)) is None
        assert _ref_of_args(()) is None


def test_library_imports_do_not_load_the_tracer():
    """The payload helpers live here, so no library, CLI or serve
    import pulls in the in-memory Tracer."""
    code = ("import sys, repro.verify, repro.record, repro.serve, "
            "repro.cli; print('repro.sim.trace' in sys.modules)")
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "False"
