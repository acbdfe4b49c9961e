"""Simulator throughput: events/sec, wall seconds, and peak RSS on the
profiled hot workloads (Figure 9 point, Figure 10 point, one
policy-grid cell, and the 64-CPU ``big_machine`` scale point).

Unlike the figure/table benchmarks this one measures the *simulator*,
not the simulated machine: the deterministic run shape (``events``,
``cycles``, ``fingerprint``) must not move unless the simulation
changed, while ``events_per_sec``/``wall_s`` track implementation
speed.  ``repro trend`` classifies a falling ``events_per_sec`` (or a
rising ``wall_s``) as a regression; CI additionally runs ``repro perf
--check``, which hard-fails on any run-shape change and on a >25%
events/sec drop (wall noise alone only warns).
"""

import os

from repro.harness.perf import run_perf, render_table

from conftest import bench_json, emit


def test_perf(benchmark):
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    payload = benchmark.pedantic(
        run_perf, kwargs={"quick": quick, "repeats": 3},
        rounds=1, iterations=1)
    emit("perf-throughput", render_table(payload))
    bench_json("perf", benchmark, config=payload["config"],
               results=payload["results"])
    for name, row in payload["results"].items():
        benchmark.extra_info[name] = row["events_per_sec"]
    # The run shape is pinned: every workload must actually have run.
    for name, row in payload["results"].items():
        assert row["events"] > 0, name
        assert row["fingerprint"], name
