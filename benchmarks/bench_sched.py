"""Preemptive-scheduler lab: the sched grid as a benchmark.

Runs every scheduler core (round-robin, MLFQ, CFS-like fair) with more
runtime threads than CPU slots, so timer interrupts preempt threads
inside critical sections and speculative regions -- each preemption of
an in-flight elision is a context-switch abort, and the grid publishes
those counts per cell.  Every run is checked by the serializability
oracle and invariant monitors: a scheduler that goes fast by breaking
lock semantics fails its cell.
"""

from repro.harness.experiments import sched_grid
from repro.harness.report import sched_grid_table

from conftest import bench_json, emit, engine_kwargs, scale

SCHEDULERS = ("rr", "mlfq", "cfs")
QUANTA = (200, 800)
POLICIES = ("timestamp", "nack")
WORKLOADS = ("single-counter", "linked-list")
CPUS = 4
THREADS_PER_CPU = 2


def test_sched_grid():
    grid = sched_grid(schedulers=SCHEDULERS, quanta=QUANTA,
                      policies=POLICIES, workloads=WORKLOADS,
                      num_cpus=CPUS, threads_per_cpu=THREADS_PER_CPU,
                      seeds=2, ops=96 * scale(),
                      app_scale=12 * scale(), **engine_kwargs())
    emit("sched-grid", sched_grid_table(grid))

    cycles = {key: cell["cycles"] for key, cell in grid.cells.items()}
    bench_json("sched",
               config={"schedulers": list(SCHEDULERS),
                       "quanta": list(QUANTA),
                       "policies": list(POLICIES),
                       "workloads": list(WORKLOADS),
                       "num_cpus": CPUS,
                       "threads_per_cpu": THREADS_PER_CPU,
                       "seeds": 2, "ops": 96 * scale(),
                       "app_scale": 12 * scale()},
               results={"cycles": cycles,
                        # The telemetry the trend gate watches: work
                        # thrown away to preemption, per cell.
                        "preemptions": {
                            key: cell["preemptions"]
                            for key, cell in grid.cells.items()},
                        "context_switch_aborts": {
                            key: cell["context_switch_aborts"]
                            for key, cell in grid.cells.items()},
                        "migrations": {
                            key: cell["migrations"]
                            for key, cell in grid.cells.items()},
                        "summaries": {key: cell["summary"]
                                      for key, cell in grid.cells.items()}})

    # Every cell must pass the oracle + monitors even under mid-CS
    # preemption -- that is the point of the experiment.
    assert grid.ok, f"verification failures: {grid.failures}"
    # A short quantum preempts at least as often as a long one on the
    # same (scheduler, policy, workload) cell.
    preempt = {key: cell["preemptions"] for key, cell in grid.cells.items()}
    for scheduler in SCHEDULERS:
        for policy in POLICIES:
            for workload in WORKLOADS:
                short = preempt[f"{scheduler}/q{QUANTA[0]}/{policy}/{workload}"]
                long_ = preempt[f"{scheduler}/q{QUANTA[-1]}/{policy}/{workload}"]
                assert short >= long_, (scheduler, policy, workload)
