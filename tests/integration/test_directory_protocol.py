"""The directory-based substrate: same workloads, same schemes, an
unordered network -- everything must still serialize."""

import pytest

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.parallel import run
from repro.workloads.generator import WorkloadSpec, generate
from repro.workloads.microbench import (linked_list, multiple_counter,
                                        single_counter)

from tests.conftest import ALL_SCHEMES


def _cfg(scheme, num_cpus=4, seed=0):
    return SystemConfig(num_cpus=num_cpus, scheme=scheme, seed=seed,
                        protocol="directory", max_cycles=100_000_000)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("builder", [multiple_counter, single_counter,
                                     linked_list],
                         ids=["multi", "single", "list"])
def test_microbenchmarks_validate_on_directory(builder, scheme):
    result = run(builder(4, 256), _cfg(scheme))
    assert result.cycles > 0


def test_bad_protocol_rejected():
    with pytest.raises(ValueError):
        SystemConfig(protocol="token-coherence")


def test_unordered_network_preserves_tlr_shape():
    cycles = {}
    for scheme in (SyncScheme.BASE, SyncScheme.TLR):
        cycles[scheme] = run(single_counter(8, 512),
                             _cfg(scheme, num_cpus=8)).cycles
    assert cycles[SyncScheme.TLR] < cycles[SyncScheme.BASE]


def test_directory_scales_disjoint_traffic_better_than_bus():
    """Homes are line-interleaved: disjoint-line traffic has no global
    serialization point, unlike the shared bus.  Four pairs of CPUs
    ping-ponging four *different* lines serialize through one slow bus
    but spread across four slow homes."""
    from repro.harness.machine import Machine
    from repro.runtime.program import Workload
    from repro.workloads.common import AddressSpace

    def build():
        space = AddressSpace()
        hot = space.alloc_lines(4)

        def pinger(pair):
            def thread(env):
                for i in range(48):
                    value = yield env.read(hot[pair], pc=f"p{pair}.ld")
                    yield env.write(hot[pair], value + 1, pc=f"p{pair}.st")
                    yield env.compute(5)
            return thread

        threads = [pinger(pair) for pair in range(4) for _ in range(2)]
        return Workload(name="pingpong", threads=threads,
                        meta={"space": space})

    bus_cfg = SystemConfig(num_cpus=8, scheme=SyncScheme.BASE)
    bus_cfg.bus.occupancy = 24  # a slow shared ordering point
    dir_cfg = _cfg(SyncScheme.BASE, num_cpus=8)
    dir_cfg.directory.home_occupancy = 24  # equally slow, but many homes

    bus_machine = Machine(bus_cfg)
    bus_machine.run_workload(build())
    dir_machine = Machine(dir_cfg)
    dir_machine.run_workload(build())
    assert dir_machine.stats.total_cycles < bus_machine.stats.total_cycles


def test_nack_policy_on_directory():
    from dataclasses import replace
    cfg = _cfg(SyncScheme.TLR)
    cfg.spec = replace(cfg.spec, contention_policy="nack")
    result = run(linked_list(4, 256), cfg)
    assert result.cycles > 0


@pytest.mark.parametrize("fuzz_seed", [11, 23, 37, 59])
def test_fuzzed_workloads_on_directory(fuzz_seed):
    import random
    from repro.workloads.generator import random_spec
    spec = random_spec(random.Random(fuzz_seed), num_threads=3)
    result = run(generate(spec), _cfg(SyncScheme.TLR, num_cpus=3))
    assert result.cycles > 0


def test_determinism_on_directory():
    a = run(single_counter(4, 128), _cfg(SyncScheme.TLR, seed=5))
    b = run(single_counter(4, 128), _cfg(SyncScheme.TLR, seed=5))
    assert a.cycles == b.cycles
