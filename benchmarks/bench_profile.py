"""Contention profiles of the policy grid's hot cells.

Profiles the two contended microbenchmarks under the two retention
policies at 8 processors and reports, per cell, the per-lock contention
totals, the critical-path lock ranking and the who-aborts-whom conflict
matrix (:mod:`repro.obs.profile`).  Expected shape: the nack policy
aborts more than timestamp deferral on the same cells (it restarts
where the deferral policy queues), and single-counter concentrates all
contention on one lock while linked-list spreads it.
"""

from repro.harness import parallel
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.spec import SIZE_PARAM, RunSpec
from repro.obs.profile import critical_path

from conftest import bench_json, emit, engine_kwargs, scale

POLICIES = ("timestamp", "nack")
WORKLOADS = ("single-counter", "linked-list")
NUM_CPUS = 8


def _cells(ops):
    keys, specs = [], []
    for policy in POLICIES:
        for workload in WORKLOADS:
            config = SystemConfig(num_cpus=NUM_CPUS,
                                  scheme=SyncScheme.TLR
                                  ).with_policy(policy)
            keys.append(f"{policy}/{workload}")
            specs.append(RunSpec(workload=workload, config=config,
                                 workload_args={SIZE_PARAM[workload]:
                                                ops}))
    return keys, specs


def test_profile_hot_cells():
    ops = 96 * scale()
    keys, specs = _cells(ops)
    outcomes, _ = parallel.execute(specs, **engine_kwargs())

    rows = ["cell                        attempts commits aborts "
            "cycles-lost defer-wait hottest-lock"]
    totals, paths, matrices = {}, {}, {}
    for key, outcome in zip(keys, outcomes):
        snapshot = outcome.metrics["profile"]
        totals[key] = snapshot["totals"]
        paths[key] = [[lock, cycles]
                      for lock, cycles in critical_path(snapshot)[:3]]
        matrices[key] = snapshot["conflicts"]
        t = snapshot["totals"]
        hottest = paths[key][0][0] if paths[key] else "-"
        rows.append(f"{key:<27} {t['attempts']:>8} {t['commits']:>7} "
                    f"{t['aborts']:>6} {t['cycles_lost']:>11} "
                    f"{t['deferral_cycles']:>10} {hottest}")
    emit("profile-hot-cells", "\n".join(rows))

    bench_json("profile",
               config={"policies": list(POLICIES),
                       "workloads": list(WORKLOADS),
                       "num_cpus": NUM_CPUS, "ops": ops},
               results={"totals": totals, "critical_path": paths,
                        "conflicts": matrices})

    # The deferral policy queues where the nack policy restarts, so it
    # never aborts more -- and every cell actually contends.
    for workload in WORKLOADS:
        assert (totals[f"timestamp/{workload}"]["aborts"]
                <= totals[f"nack/{workload}"]["aborts"]), workload
    for key in keys:
        assert totals[key]["attempts"] > totals[key]["commits"] > 0, key
