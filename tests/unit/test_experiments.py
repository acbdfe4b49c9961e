"""The experiment registry: one declaration per experiment.

Every entry of :data:`repro.harness.experiments.EXPERIMENTS` runs the
same way through ``repro.run(name, ...)`` and through a ``sweep`` job,
and every figure, table and grid artifact names one of them.
"""

import pytest

import repro
from repro.harness.artifacts import ARTIFACTS
from repro.harness.experiments import EXPERIMENTS
from repro.harness.jobs import serialize_result, submit
from repro.harness.spec import JOB_KINDS, JobSpec

#: Tiny parameters per experiment: every entry at a size that runs in
#: about a second.
TINY = {
    "figure7": {"num_cpus": 2, "total_increments": 16},
    "figure8": {"total_increments": 16, "processor_counts": [2]},
    "figure9": {"total_increments": 16, "processor_counts": [2]},
    "figure10": {"total_ops": 16, "processor_counts": [2]},
    "figure11": {"num_cpus": 2, "apps": ["ocean-cont"]},
    "coarse-vs-fine": {"num_cpus": 2},
    "rmw-predictor": {"num_cpus": 2, "apps": ["ocean-cont"]},
    "policies": {"policies": ["timestamp", "nack"],
                 "workloads": ["single-counter"], "processor_counts": [2],
                 "seeds": 1, "ops": 16},
    "sched": {"schedulers": ["rr"], "quanta": [200],
              "policies": ["timestamp"], "workloads": ["single-counter"],
              "seeds": 1, "ops": 16},
}


def test_every_experiment_has_tiny_params():
    assert sorted(TINY) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_run_and_sweep_job_agree(name):
    direct = serialize_result(repro.run(name, **TINY[name]))
    job = submit(JobSpec.sweep(name, **TINY[name]), cache=False)
    assert job.result == direct
    assert job.telemetry["simulated"] == job.telemetry["total_runs"] > 0


def test_job_kinds():
    assert JOB_KINDS == ("run", "sweep", "verify")


def test_every_experiment_artifact_names_a_registered_experiment():
    named = {bench: entry.experiment for bench, entry in ARTIFACTS.items()
             if entry.experiment is not None}
    assert sorted(named.values()) == sorted(EXPERIMENTS)
    for bench, name in named.items():
        assert ARTIFACTS[bench].verified == EXPERIMENTS[name].verified
