"""The model's transaction shapes as the shipped mechanisms see them:
committed write sets through :class:`~repro.verify.FootprintRecorder`
(the ``write-set`` point) and restart reasons through
:meth:`~repro.sim.stats.SimStats.reason_totals`."""

from repro.cpu.isa import line_of
from repro.harness.config import SyncScheme
from repro.harness.machine import Machine
from repro.verify import FootprintRecorder
from repro.workloads.microbench import linked_list, single_counter

from tests.conftest import small_config


def _run(scheme=SyncScheme.TLR, num_cpus=4, ops=256, builder=single_counter):
    machine = Machine(small_config(num_cpus, scheme))
    recorder = FootprintRecorder().attach(machine)
    machine.run_workload(builder(num_cpus, ops))
    return machine, recorder


def _written_lines(recorder: FootprintRecorder) -> list[int]:
    """Unique lines each committed transaction wrote, in commit order."""
    return [len({line_of(addr) for addr in txn.writes})
            for txn in recorder.committed]


class TestRestartReasons:
    def test_contended_tlr_has_classified_restarts(self):
        machine, _ = _run(builder=linked_list)
        reasons = machine.stats.reason_totals()
        assert sum(reasons.values()) == machine.stats.restarts
        assert all(isinstance(k, str) and v > 0 for k, v in reasons.items())

    def test_base_has_no_restarts(self):
        machine, _ = _run(scheme=SyncScheme.BASE)
        assert machine.stats.reason_totals() == {}


class TestCommittedWriteSets:
    def test_footprints_match_workload_shape(self):
        _, recorder = _run()
        # single-counter transactions write exactly one line.
        assert _written_lines(recorder) == [1] * 256

    def test_linked_list_footprints_are_multi_line(self):
        _, recorder = _run(builder=linked_list)
        assert max(_written_lines(recorder)) >= 2

    def test_per_cpu_commits_cover_everyone(self):
        _, recorder = _run()
        assert {txn.cpu for txn in recorder.committed} == {0, 1, 2, 3}
