"""Contention-policy lab: the policy grid as a benchmark.

Runs every contention policy (timestamp deferral, NACK retention,
requester-wins with lock fallback, Polka-style backoff) over contended
and scalable workloads at several processor counts, with every run
checked by the serializability oracle and invariant monitors.  Expected
shape: all cells verify; the paper's timestamp deferral is the strongest
policy on the contended microbenchmarks (it queues on the data instead
of aborting), while requester-wins pays for its aborts and lock
fallbacks as contention grows.
"""

from repro.harness.experiments import policy_grid
from repro.harness.report import policy_grid_table

from conftest import bench_json, emit, engine_kwargs, scale

POLICIES = ("timestamp", "nack", "requester-wins", "backoff")
WORKLOADS = ("single-counter", "linked-list", "ocean-cont")
PROCS = (2, 4, 8)


def test_policy_grid():
    grid = policy_grid(policies=POLICIES, workloads=WORKLOADS,
                       processor_counts=PROCS, seeds=2,
                       ops=96 * scale(), app_scale=12 * scale(),
                       **engine_kwargs())
    emit("policy-grid", policy_grid_table(grid))

    cycles = {key: cell["cycles"] for key, cell in grid.cells.items()}
    speedups = {}
    for workload in WORKLOADS:
        for n in PROCS:
            ts = cycles[f"timestamp/{workload}/{n}"]
            for policy in POLICIES:
                other = cycles[f"{policy}/{workload}/{n}"]
                if ts and other:
                    speedups[f"{policy}/{workload}/{n}"] = other / ts
    bench_json("policies",
               config={"policies": list(POLICIES),
                       "workloads": list(WORKLOADS),
                       "processor_counts": list(PROCS),
                       "seeds": 2, "ops": 96 * scale(),
                       "app_scale": 12 * scale()},
               results={"cycles": cycles,
                        "slowdown_vs_timestamp": speedups,
                        "summaries": {key: cell["summary"]
                                      for key, cell in grid.cells.items()},
                        # Full per-cell telemetry: the per-policy
                        # deferral-depth / retry / latency histograms.
                        "metrics": {key: cell["metrics"]
                                    for key, cell in grid.cells.items()}})

    # Every cell must pass the oracle + monitors -- a policy that wins
    # cycles by breaking serializability doesn't get on the board.
    assert grid.ok, f"verification failures: {grid.failures}"
    # The paper's policy queues on the data under contention; the
    # abort-based policy pays for its restarts and lock fallbacks.
    n = PROCS[-1]
    assert (cycles[f"timestamp/single-counter/{n}"]
            <= cycles[f"requester-wins/single-counter/{n}"])
