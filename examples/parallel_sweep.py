#!/usr/bin/env python3
"""Parallel sweep engine tour: fan-out, caching, and failure handling.

Runs the single-counter microbenchmark for every scheme at several
processor counts three ways:

1. serially (``jobs=1``) -- the determinism baseline;
2. in parallel (``jobs=4``) -- same results, bit-for-bit;
3. again with the on-disk cache -- no simulation at all the second time;

then deliberately starves one configuration's cycle budget to show a
livelock degrading into a ``FailedRun`` record instead of killing the
sweep.

Run:  python examples/parallel_sweep.py
"""

import tempfile
import time

from repro import RunSpec, SyncScheme, SystemConfig
from repro.harness.cache import ResultCache
from repro.harness.parallel import FailedRun, execute
from repro.harness.report import telemetry_line

SCHEMES = (SyncScheme.BASE, SyncScheme.SLE, SyncScheme.TLR, SyncScheme.MCS)
PROCS = (2, 4)
OPS = 128


def specs():
    return [RunSpec(workload="single-counter",
                    config=SystemConfig(num_cpus=p, scheme=s,
                                        max_cycles=20_000_000),
                    workload_args={"total_increments": OPS})
            for s in SCHEMES for p in PROCS]


def main() -> None:
    serial, t_serial = execute(specs(), jobs=1)
    print(telemetry_line(t_serial.to_dict()))

    parallel, t_parallel = execute(specs(), jobs=4)
    print(telemetry_line(t_parallel.to_dict()))
    same = [a.to_dict() for a in serial] == [b.to_dict() for b in parallel]
    print(f"jobs=4 identical to jobs=1: {same}\n")

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        execute(specs(), jobs=4, cache=cache)
        start = time.perf_counter()
        _, t_cached = execute(specs(), jobs=4, cache=cache)
        elapsed = time.perf_counter() - start
        print(f"second pass: {t_cached.cache_hits}/{t_cached.total_runs} "
              f"cache hits in {elapsed:.3f}s\n")

    # One spec whose cycle budget cannot possibly suffice: the engine
    # reports it as a FailedRun at the seed it asked for, while the
    # healthy configurations complete normally.
    bad = RunSpec(workload="single-counter",
                  config=SystemConfig(num_cpus=4, scheme=SyncScheme.BASE,
                                      max_cycles=500),
                  workload_args={"total_increments": OPS})
    outcomes, telemetry = execute(specs() + [bad], jobs=4)
    print(telemetry_line(telemetry.to_dict()))
    for outcome in outcomes:
        if isinstance(outcome, FailedRun):
            print(f"degraded gracefully: {outcome.workload} "
                  f"[{outcome.scheme} @{outcome.num_cpus}cpu] -> "
                  f"{outcome.error} at seed {outcome.seed}")


if __name__ == "__main__":
    main()
