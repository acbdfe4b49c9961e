#!/usr/bin/env python3
"""Time-travel debugging a policy bug with the record/replay layer.

The session this walks through:

1. **Inject a bug**: invert TLR's timestamp conflict resolution (later
   transactions win) -- the paper's ordering guarantee, broken.
2. **Catch it**: fan `repro verify` across seeds until the monitors or
   the oracle flag a failing interleaving, then shrink it; the shrunk
   reproduction auto-captures a binary record log of the exact failing
   schedule.
3. **Walk the wreckage**: reconstruct machine state around the first
   violation from the log alone (no re-simulation).
4. **Bisect**: record the same spec on the *healthy* policy and diff
   the two logs -- the report names the first event where the broken
   schedule departs from the correct one.

Run:  python examples/time_travel_debug.py
"""

import contextlib
import os
import tempfile

import repro.policies.base as policy_base
import repro.policies.timestamp as policy_timestamp
from repro.coherence.messages import beats as healthy_beats
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.spec import RunSpec
from repro.record import Timeline, first_divergence, load_log
from repro.verify.explorer import shrink_failure, verify_run


def inverted_beats(challenger, incumbent):
    """The injected bug: the later timestamp wins every conflict."""
    if challenger is None or incumbent is None:
        return healthy_beats(challenger, incumbent)
    return not healthy_beats(challenger, incumbent)


def set_beat(fn) -> None:
    policy_base.beats = fn
    policy_timestamp.beats = fn


def session() -> None:
    spec = RunSpec(
        workload="linked-list",
        config=SystemConfig(num_cpus=8, scheme=SyncScheme.TLR),
        workload_args={"total_ops": 128},
        validate=False)

    # -- 1. break the policy, 2. find and shrink a failing seed -------
    print("== injecting inverted timestamp conflict resolution ==")
    set_beat(inverted_beats)
    try:
        failing = None
        for seed in range(16):
            verdict = verify_run(spec.with_seed(seed))
            if not verdict.ok:
                failing = verdict
                print(f"seed {seed} FAILED: "
                      f"{(verdict.violations or [verdict.error])[0]}")
                break
        if failing is None:
            raise SystemExit("bug escaped 16 seeds (unexpected)")

        shrunk = shrink_failure(spec.with_seed(failing.seed))
        bad_log_path = shrunk.result.record_log
        print(f"\nshrunk to {shrunk.spec.workload_args} "
              f"cpus={shrunk.spec.config.num_cpus} after "
              f"{shrunk.shrink_steps} steps")
        print(f"auto-captured record log: {bad_log_path}")
    finally:
        set_beat(healthy_beats)

    # -- 3. reconstruct state around the failure from the log alone ---
    bad = load_log(bad_log_path)
    timeline = Timeline(bad)
    spans = timeline.txn_spans()
    # Outcomes carry the restart reason: "loss:conflict-lost", ...
    aborts = [s for s in spans if s[3].split(":")[0] in ("abort", "loss")]
    print(f"\n{len(spans)} txn windows in the log, "
          f"{len(aborts)} ended in abort/loss")
    probe = aborts[0][1] if aborts else timeline.final_time // 2
    print(f"machine state at t={probe} (reconstructed, not re-run):")
    print(timeline.state_at(probe).render())

    # -- 4. record the healthy policy on the same spec and diff -------
    print("\n== recording the same shrunk spec under the fixed "
          "policy ==")
    good_result = verify_run(shrunk.spec, record=True)
    good = load_log(good_result.log_bytes)
    print(f"healthy run: ok={good_result.ok}")

    divergence = first_divergence(bad, good)
    if divergence is None:
        raise SystemExit("logs identical (unexpected)")
    print(f"\nfirst divergent event (record #{divergence.index}) -- "
          f"where the inverted policy's schedule departs:")
    print(divergence.render(context=6))

    around = divergence.ours or divergence.theirs
    if around is not None and around.line is not None:
        window = timeline.line_history(around.line,
                                       since=max(0, around.time - 200),
                                       until=around.time + 200)
        print(f"\nwho touched line {around.line:#x} within ±200 cycles "
              f"of the divergence ({len(window)} records):")
        for record in window[:12]:
            print("  " + record.render())

    print("\nreading the diff: up to the divergence both schedules "
          "agree byte-for-byte;")
    print("the first mismatching record is where the inverted beat "
          "first picked a")
    print("different conflict winner -- the bisection anchor for the "
          "bug.")


def main() -> None:
    """Run the session.  The shrunk failure's record log lands in the
    caller's ``$REPRO_ARTIFACT_DIR`` when one is set, and otherwise in a
    temporary directory removed at exit."""
    with contextlib.ExitStack() as stack:
        if not os.environ.get("REPRO_ARTIFACT_DIR"):
            os.environ["REPRO_ARTIFACT_DIR"] = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="time-travel-"))
        session()


if __name__ == "__main__":
    main()
