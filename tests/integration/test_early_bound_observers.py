"""Observers see a processor that binds its handles at construction.

Observers subscribe to emit points that live *inside* the components
(``repro.sim.taps``), so no handle a component captured earlier can
route around them.  The regression case is a processor that binds its
memory and abort handles once, in ``__init__`` -- the shape of a
hot-path-optimised core, and the shape of an old bug: early-bound store
handles slipped past a footprint recorder that patched ``store.write``
after the machine was built, and the serializability oracle judged
incomplete footprints while execution stayed identical.
"""

from __future__ import annotations

import pytest

import repro.harness.machine as machine_module
from repro.cpu.processor import Processor
from repro.harness.machine import Machine
from repro.harness.spec import RunSpec
from repro.harness.config import SyncScheme, SystemConfig
from repro.record import FlightRecorder, load_log
from repro.verify import FootprintRecorder, SerializabilityOracle


class _BoundStore:
    """A processor's private view of memory, bound at construction."""

    def __init__(self, store):
        self.read = store.read
        self.write = store.write


class EarlyBoundProcessor(Processor):
    """Holds ``store.write``, ``_arch_read`` and the controller's
    ``on_misspeculation`` as handles bound in ``__init__`` and uses
    them on its load, store and fallback paths."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.store = _BoundStore(self.store)
        # The bound handle shadows the method, so every architectural
        # read (load hit and fill, LL, swap, CAS) goes through it.
        self._arch_read = self._arch_read
        self._misspec_now = self.controller.on_misspeculation

    def resource_fallback(self, reason: str) -> None:
        if not self.spec.active:
            return
        self.stats.resource_fallbacks += 1
        self.controller.abort_speculation()
        self._misspec_now(reason, 0)


def _spec(workload: str, scheme: SyncScheme,
          write_buffer: int = 64) -> RunSpec:
    config = SystemConfig(num_cpus=4, scheme=scheme, seed=3)
    config.spec.write_buffer_entries = write_buffer
    size = ("total_ops" if workload == "linked-list"
            else "total_increments")
    return RunSpec(workload=workload, config=config,
                   workload_args={size: 96})


def _observed_run(spec: RunSpec):
    workload = spec.build_workload()
    machine = Machine(spec.config)
    flight = FlightRecorder(
        spec, locks=sorted(workload.lock_addrs)).attach(machine)
    footprint = FootprintRecorder().attach(machine)
    machine.run_workload(workload)
    return machine, flight.finish("0" * 64), footprint


# A two-entry write buffer forces wb-overflow fallbacks (misspecs
# through the bound handle) and real lock acquisitions (plain writes).
CASES = {
    "linked-list/TLR/wb2": _spec("linked-list", SyncScheme.TLR, 2),
    "linked-list/SLE": _spec("linked-list", SyncScheme.SLE),
    "single-counter/SLE": _spec("single-counter", SyncScheme.SLE),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_early_bound_handles_stay_observed(case, monkeypatch):
    spec = CASES[case]
    reference, ref_log, ref_footprint = _observed_run(spec)
    monkeypatch.setattr(machine_module, "Processor", EarlyBoundProcessor)
    machine, log, footprint = _observed_run(spec)
    assert all(isinstance(p, EarlyBoundProcessor)
               and "_arch_read" in vars(p) for p in machine.processors)
    # The runs themselves are identical...
    assert machine.stats.to_dict() == reference.stats.to_dict()
    # ...and so is everything the observers saw through the handles.
    assert footprint.plain_writes > 0
    assert any(txn.reads for txn in footprint.committed)
    assert any(record.op == "tap" and record.label == "misspec"
               for record in load_log(log).records)
    assert footprint.log == ref_footprint.log
    assert footprint.committed == ref_footprint.committed
    # The flight log holds every tap, state, deferral and txn record.
    assert log == ref_log
    report = SerializabilityOracle(footprint).check(machine.store.snapshot())
    assert report.ok, report.violations
