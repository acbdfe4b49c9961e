"""Run-shape pins for four hot configurations.

Each case is one bare :meth:`Machine.run_workload` run on a fresh
machine -- the Figure 9 single-counter point, the Figure 10 linked-list
point, one contention-policy grid cell and a 64-CPU directory-protocol
scale point -- and fixes its result fingerprint, the number of kernel
events dispatched and the simulated cycle count.  The event count is
not part of any fingerprint, so these pins are the check that a kernel
or controller change did not add or drop events while leaving the
result alone.

Regenerate a pin only for a deliberate change of simulated behaviour,
never to make a refactor pass.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.runner import RunResult, result_fingerprint
from repro.harness.spec import RunSpec

_TLR8 = SystemConfig(num_cpus=8, scheme=SyncScheme.TLR, seed=0)

#: name -> (spec, fingerprint, events, cycles)
PINS = {
    "fig09_single_counter": (
        RunSpec(workload="single-counter", config=_TLR8,
                workload_args={"total_increments": 512}),
        "67c7423698514bda15543adbcc7d14fcc23546a5a48d8fd130490c80a775e6d4",
        6681, 18631),
    "fig10_linked_list": (
        RunSpec(workload="linked-list", config=_TLR8,
                workload_args={"total_ops": 512}),
        "5128f97fdccac095808867424130259d41069f6953b0a30108ad1c2a988bee33",
        29636, 65822),
    "policy_grid_cell": (
        RunSpec(workload="linked-list", config=_TLR8.with_policy("backoff"),
                workload_args={"total_ops": 256}),
        "cfa93143ae172714a4dd27654d987ceb2e3db1ad2e320a7f37f4a1b6bdd25068",
        15206, 59595),
    "big_machine": (
        RunSpec(workload="linked-list",
                config=replace(_TLR8, num_cpus=64, protocol="directory"),
                workload_args={"total_ops": 64}),
        "82d54279e2e1570dbb4dec24c25e7600e5113f1e4d32b8f26c7abece9c4277d9",
        50609, 27908),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_run_shape_is_pinned(name):
    spec, fingerprint, events, cycles = PINS[name]
    workload = spec.build_workload()
    machine = Machine(spec.config)
    stats = machine.run_workload(workload, validate=spec.validate)
    got = result_fingerprint(RunResult(
        config=spec.config, workload_name=workload.name,
        stats=stats, store=machine.store))
    assert (got, machine.sim.events_fired, stats.total_cycles) == \
        (fingerprint, events, cycles)
