"""Unit tests for the harness layer: runner, machine wiring,
experiments entry points (at tiny scale)."""

import pytest

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.parallel import run
from repro.harness.runner import RunResult, execute_workload
from repro.runtime.program import ValidationError, Workload
from repro.workloads.common import AddressSpace
from repro.workloads.microbench import single_counter


def _tiny(scheme=SyncScheme.TLR, num_cpus=2):
    return SystemConfig(num_cpus=num_cpus, scheme=scheme,
                        max_cycles=20_000_000)


class TestRunner:
    def test_run_returns_result(self):
        result = run(single_counter(2, 32), _tiny())
        assert isinstance(result, RunResult)
        assert result.workload_name == "single-counter"
        assert result.cycles == result.stats.total_cycles > 0

    def test_speedup_over(self):
        base = run(single_counter(2, 64), _tiny(SyncScheme.BASE))
        tlr = run(single_counter(2, 64), _tiny(SyncScheme.TLR))
        assert tlr.speedup_over(base) == pytest.approx(
            base.cycles / tlr.cycles)

    def test_execute_workload_honors_scheme(self):
        result = execute_workload(single_counter(2, 32),
                                  _tiny(SyncScheme.SLE))
        assert result.config.scheme is SyncScheme.SLE

    def test_execute_workload_per_scheme(self):
        results = {scheme: execute_workload(single_counter(2, 32),
                                            _tiny(scheme))
                   for scheme in (SyncScheme.BASE, SyncScheme.TLR)}
        assert set(results) == {SyncScheme.BASE, SyncScheme.TLR}
        assert all(r.cycles > 0 for r in results.values())

    def test_validation_failure_raises_validation_error(self):
        space = AddressSpace()
        word = space.alloc_word()

        def thread(env):
            yield env.write(word, 1)

        def bad_validator(store):
            assert store.read(word) == 999

        workload = Workload(name="bad", threads=[thread],
                            validate=bad_validator, meta={"space": space})
        with pytest.raises(ValidationError, match="bad"):
            run(workload, _tiny(num_cpus=1))

    def test_validate_false_skips_checker(self):
        space = AddressSpace()
        word = space.alloc_word()

        def thread(env):
            yield env.write(word, 1)

        workload = Workload(name="bad", threads=[thread],
                            validate=lambda store: (_ for _ in ()).throw(
                                AssertionError("nope")),
                            meta={"space": space})
        result = run(workload, _tiny(num_cpus=1), validate=False)
        assert result.cycles > 0


class TestMachine:
    def test_machine_builds_requested_cpus(self):
        machine = Machine(_tiny(num_cpus=3))
        assert len(machine.processors) == 3
        assert len(machine.controllers) == 3
        assert machine.bus.controllers.keys() == {0, 1, 2}

    def test_mcs_machine_allocates_qnodes_from_workload_space(self):
        machine = Machine(_tiny(SyncScheme.MCS, num_cpus=2))
        machine.run_workload(single_counter(2, 16))
        # MCS lock accesses are tagged lock accesses in stats.
        assert machine.stats.cpu(0).lock_stall_cycles >= 0

    def test_total_cycles_is_max_finish_time(self):
        machine = Machine(_tiny(num_cpus=2))
        stats = machine.run_workload(single_counter(2, 16))
        finishes = [stats.cpu(i).finish_time for i in range(2)]
        assert stats.total_cycles == max(finishes)


class TestExperimentEntryPoints:
    def test_figure8_tiny(self):
        result = run("figure8", total_increments=32, processor_counts=(2,))
        assert result.processor_counts == [2]
        assert set(result.series) == {SyncScheme.BASE, SyncScheme.MCS,
                                      SyncScheme.SLE, SyncScheme.TLR}

    def test_figure7_tiny(self):
        result = run("figure7", num_cpus=2, total_increments=16)
        assert result["critical_sections"] >= 16
        assert result["cycles"] > 0

    def test_figure11_single_app(self):
        results = run(
            "figure11", num_cpus=2, apps=["ocean-cont"],
            schemes=(SyncScheme.BASE, SyncScheme.TLR))
        assert set(results) == {"ocean-cont"}
        app = results["ocean-cont"]
        assert app.speedup(SyncScheme.BASE) == 1.0
        lock, nonlock = app.normalized_parts(SyncScheme.TLR)
        assert lock >= 0 and nonlock > 0
