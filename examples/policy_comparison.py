#!/usr/bin/env python3
"""Contention policies compared: lock-free progress vs livelock.

The paper's central liveness argument (Section 3) is that *timestamp-
ordered conflict deferral* gives lock-free -- in fact starvation-free --
execution: some processor always wins every conflict, and the loser's
eventual win is guaranteed because timestamps age.  The pluggable
contention-policy layer (``repro.policies``) lets you test what happens
when you swap that decision rule out:

* ``timestamp``   -- the paper: oldest transaction wins, losers defer;
* ``nack``        -- the paper's Section 3 alternative: retain by
                     refusing (NACK) instead of deferring;
* ``backoff``     -- Polka-style priorities + exponential backoff
                     (probabilistic progress only);
* ``requester-wins`` -- TSX-like: the incoming request always wins.
                     With a bounded-abort lock fallback this is safe;
                     with the fallback disabled two counter-incrementers
                     can abort each other forever -- a livelock the
                     starvation watchdog flags within a few thousand
                     cycles.

Run:  python examples/policy_comparison.py [num_cpus]
"""

import sys
from dataclasses import replace

from repro import SyncScheme, SystemConfig, run
from repro.harness.machine import Machine
from repro.verify.monitors import InvariantViolation, MonitorSuite
from repro.workloads import single_counter


def compare_policies(num_cpus: int) -> None:
    print(f"single counter, {num_cpus} CPUs, one lock -- "
          f"same program, four conflict-resolution rules\n")
    print(f"{'policy':<18}{'cycles':>9}{'restarts':>10}{'nacks':>8}"
          f"{'deferrals':>11}{'fallbacks':>11}")
    for policy in ("timestamp", "nack", "backoff", "requester-wins"):
        config = SystemConfig(
            num_cpus=num_cpus, scheme=SyncScheme.TLR).with_policy(policy)
        result = run(single_counter(num_cpus, 256), config)
        s = result.stats.summary()
        print(f"{policy:<18}{result.cycles:>9}{s['restarts']:>10}"
              f"{s['nacks_sent']:>8}{s['requests_deferred']:>11}"
              f"{s['lock_fallbacks']:>11}")
    print("\nTimestamp deferral queues losers on the data (no restarts);"
          "\nrequester-wins pays for every conflict with an abort and"
          "\nbounds the damage only by falling back to the real lock.")


def livelock_demo() -> None:
    print("\n--- now disable requester-wins' lock fallback "
          "(fallback_k=None) ---\n")
    config = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR).with_policy(
        "requester-wins", fallback_k=None)
    config = replace(config, max_cycles=3_000_000)
    workload = single_counter(4, total_increments=64, think_cycles=200)

    machine = Machine(config)
    MonitorSuite(machine, watchdog_period=2_000,
                 watchdog_patience=5).attach()
    try:
        machine.run_workload(workload)
    except InvariantViolation as exc:
        s = machine.stats.summary()
        print(f"starvation watchdog fired at t={machine.sim.now}:")
        print(f"  {exc}")
        print(f"  restarts so far: {s['restarts']}, "
              f"commits: {s['elisions_committed']}")
        print("\nEvery conflict aborts the current holder, the aborted"
              "\nside retries and aborts the new holder right back: no"
              "\nprocessor ever commits.  The paper's timestamp order"
              "\nmakes this impossible -- the oldest transaction always"
              "\nsurvives, and losers inherit its line when it commits.")
    else:
        raise SystemExit("expected the watchdog to flag a livelock")


def main() -> None:
    num_cpus = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    compare_policies(num_cpus)
    livelock_demo()


if __name__ == "__main__":
    main()
