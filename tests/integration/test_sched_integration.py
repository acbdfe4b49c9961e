"""Integration tests for preemptive scheduling (repro.sched).

Four angles:

* **Inertness.**  Attaching any scheduler with ``threads == cpus``
  (one thread per slot) must reproduce the scheduler-off golden
  fingerprints bit-for-bit, at any quantum -- the property that lets
  the subsystem land without invalidating every pinned behavior.
* **Liveness under preemption.**  A preempted lock holder must never
  block the other threads' progress under any contention policy: TLR's
  lock-free claim is exactly that the lock is never actually held
  during speculation, so descheduling the "holder" aborts its elision
  and everyone else keeps committing.
* **Record/replay.**  A scheduler-on run records OP_SCHED records, the
  log replays byte-identically, and the timeline can answer who was
  on-CPU at any cycle.
* **The grid.**  A small ``sched`` experiment verifies every cell through
  the oracle and carries context-switch-abort counts.
"""

from dataclasses import replace

from repro.harness.config import SchedConfig, SyncScheme, SystemConfig
from repro.harness.runner import execute_workload, result_fingerprint
from repro.harness.spec import RunSpec
from repro.policies import POLICY_NAMES
from repro.sched import KNOWN_SCHEDULERS

from test_policy_lab import BUILDERS, GOLDEN_DEFAULT


def _sched_cfg(scheduler, quantum, threads_per_cpu, policy=None, seed=0,
               cpus=4, migrate=False):
    cfg = SystemConfig(num_cpus=cpus, seed=seed).with_scheme(SyncScheme.TLR)
    if policy:
        cfg = cfg.with_policy(policy)
    return replace(cfg, sched=SchedConfig(
        scheduler=scheduler, quantum=quantum,
        threads_per_cpu=threads_per_cpu, migrate=migrate))


# ----------------------------------------------------------------------
# Inertness: scheduler attached, threads == cpus -> golden fingerprints
# ----------------------------------------------------------------------
def test_every_scheduler_is_inert_at_threads_equals_cpus():
    for scheduler in KNOWN_SCHEDULERS:
        for quantum in (64, 10**8):     # frantic ticks and one giant slice
            for (name, seed), want in GOLDEN_DEFAULT.items():
                cfg = _sched_cfg(scheduler, quantum, threads_per_cpu=1,
                                 seed=seed)
                result = execute_workload(BUILDERS[name](4, 96), cfg)
                assert result_fingerprint(result) == want, (
                    f"{scheduler}/q{quantum} perturbed {name}/seed{seed} "
                    f"despite one thread per slot")
                # Inert means *no trace*, not just same outcome.
                assert not any(k.startswith("sched.")
                               for k in result.stats.extra)


# ----------------------------------------------------------------------
# Liveness: preempting a speculating thread must not block the others
# ----------------------------------------------------------------------
def test_preempted_holder_blocks_nobody_under_any_policy():
    for policy in POLICY_NAMES:
        cfg = _sched_cfg("rr", quantum=150, threads_per_cpu=2,
                         policy=policy)
        result = execute_workload(BUILDERS["single-counter"](4, 96), cfg)
        reasons = result.stats.reason_totals()
        assert reasons.get("deschedule", 0) > 0, (
            f"{policy}: quantum 150 never hit a speculating thread; "
            f"the test lost its subject")
        assert result.stats.total("elisions_committed") > 0, policy


def test_all_schedulers_complete_a_contended_multiplexed_run():
    for scheduler in KNOWN_SCHEDULERS:
        for workload in ("single-counter", "linked-list"):
            cfg = _sched_cfg(scheduler, quantum=200, threads_per_cpu=2)
            result = execute_workload(BUILDERS[workload](4, 96), cfg)
            assert result.stats.extra["sched.preemptions"] > 0, (
                scheduler, workload)


def test_verifier_accepts_preemptive_runs():
    from repro.verify import verify_run
    for scheduler in KNOWN_SCHEDULERS:
        cfg = _sched_cfg(scheduler, quantum=150, threads_per_cpu=2)
        spec = RunSpec(workload="single-counter", config=cfg,
                       workload_args={"total_increments": 96})
        outcome = verify_run(spec)
        assert outcome.ok, (scheduler, outcome.violations, outcome.error)
        assert outcome.num_txns > 0


# ----------------------------------------------------------------------
# Record / replay
# ----------------------------------------------------------------------
def test_sched_run_records_and_replays_byte_identically():
    from repro.record import Timeline, load_log, record_run, replay_log
    cfg = _sched_cfg("rr", quantum=400, threads_per_cpu=2)
    spec = RunSpec(workload="single-counter", config=cfg,
                   workload_args={"total_increments": 48})
    recorded = record_run(spec)
    assert recorded.error is None

    image = load_log(recorded.log)
    sched_records = [r for r in image.records if r.op == "sched"]
    assert sched_records, "scheduler-on log carries no OP_SCHED records"
    kinds = {r.label for r in sched_records}
    assert "switch-in" in kinds and "switch-out" in kinds

    report = replay_log(recorded.log)
    assert report.ok, report.render()

    timeline = Timeline(image)
    # At t=0 the initial dispatch put one thread on each slot.
    on_start = timeline.who_on_cpu(0)
    assert set(on_start) == {0, 1}
    assert all(t is not None for t in on_start.values())
    spans = timeline.sched_spans()
    assert spans
    for slot, thread, on, off in spans:
        assert off >= on
        assert thread % 2 == slot       # home-slot pinning, migrate off


def test_scheduler_off_log_has_no_sched_records():
    from repro.record import load_log, record_run
    cfg = SystemConfig(num_cpus=2, seed=0).with_scheme(SyncScheme.TLR)
    spec = RunSpec(workload="single-counter", config=cfg,
                   workload_args={"total_increments": 32})
    image = load_log(record_run(spec).log)
    assert not any(r.op == "sched" for r in image.records)


# ----------------------------------------------------------------------
# The grid experiment
# ----------------------------------------------------------------------
def test_small_sched_grid_verifies_and_counts_aborts():
    import json

    from repro.harness.experiments import SchedGridResult, run_experiment
    from repro.harness.report import sched_grid_table

    grid = run_experiment("sched", schedulers=("rr", "cfs"), quanta=(150,),
                          policies=("timestamp",),
                          workloads=("single-counter",),
                          seeds=2, ops=96, cache=False)
    assert grid.ok, grid.failures
    for key, cell in grid.cells.items():
        assert cell["preemptions"] > 0, key
        assert cell["context_switch_aborts"] > 0, key
        assert cell["metrics"] is not None

    table = sched_grid_table(grid)
    assert "single-counter" in table and "rr/q150" in table

    again = SchedGridResult.from_dict(
        json.loads(json.dumps(grid.to_dict())))
    assert again.to_dict() == grid.to_dict()


def test_sched_jobspec_round_trips_and_routes():
    from repro.harness.jobs import submit
    from repro.harness.spec import JobSpec

    spec = JobSpec.sweep("sched", schedulers=("rr",), quanta=(200,),
                         policies=("timestamp",),
                         workloads=("single-counter",), seeds=1, ops=64)
    again = JobSpec.from_dict(spec.to_dict())
    assert again.fingerprint() == spec.fingerprint()
    job = submit(spec, cache=False)
    from repro.harness.experiments import SchedGridResult
    grid = SchedGridResult.from_dict(job.result)
    assert grid.ok
