#!/usr/bin/env python3
"""Watching TLR work: read the coherence and transaction events.

Records a 3-processor TLR machine running a contended counter with the
flight recorder and prints the interleaving around one conflict from
the record log: transactions begin, a conflicting request arrives and
is deferred, the winner commits and services the loser, the loser's
data arrives.

Run:  python examples/tracing_demo.py
"""

from repro import SyncScheme, SystemConfig
from repro.harness.spec import RunSpec
from repro.record import Timeline, record_run

#: Tap kinds that tell the deferral story.
STORY = ("txn-begin", "defer", "service", "txn-commit", "loss", "data")


def main() -> None:
    spec = RunSpec(workload="single-counter",
                   config=SystemConfig(num_cpus=3, scheme=SyncScheme.TLR),
                   workload_args={"total_increments": 48})
    timeline = Timeline(record_run(spec).log)

    counts = timeline.counts()
    print("event histogram:")
    for kind in sorted(counts):
        print(f"  {kind:<18}{counts[kind]}")

    deferral = next((record for record in timeline.records
                     if record.op == "tap" and record.label == "defer"),
                    None)
    if deferral is not None:
        moment = deferral.time
        print(f"\nfirst deferral happened at cycle {moment}; the "
              f"surrounding interleaving:")
        for record in timeline.records:
            if moment - 150 <= record.time <= moment + 250 and (
                    record.op == "defer"
                    or record.op == "tap" and record.label in STORY):
                print(record.render())

    print("\nreading the log: the deferring processor kept exclusive")
    print("ownership until its txn-commit, then 'service' handed the")
    print("line (with post-commit data) to the deferred requester.")


if __name__ == "__main__":
    main()
