"""Ablations of the TLR design choices DESIGN.md calls out.

Each ablation toggles one mechanism and measures its contribution on
the workload that stresses it:

* retention policy (deferral vs NACK, Section 3) on the linked list --
  the paper chose deferral partly because NACKs add retry traffic;
* single-block relaxation (Section 3.2) on the single counter -- the
  TLR vs TLR-strict-ts gap of Figure 9, isolated;
* write-buffer capacity on cholesky -- smaller buffers force more
  resource fallbacks (real lock acquisitions);
* victim-cache size on a set-conflict-heavy transaction -- Section 4's
  "16-entry victim cache + 4-way cache guarantees 20 lines" contract;
* restart backoff on the strict-timestamp counter -- the cost of
  re-entering a conflict chain immediately after losing;
* untimestamped-request policy (Section 2.2's two options) on a racy
  reader.
"""

from dataclasses import replace

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.parallel import run
from repro.workloads.apps import cholesky
from repro.workloads.microbench import linked_list, single_counter

from conftest import bench_json, emit, scale


def _cfg(num_cpus=8, scheme=SyncScheme.TLR, **spec_overrides):
    cfg = SystemConfig(num_cpus=num_cpus, scheme=scheme)
    if spec_overrides:
        cfg.spec = replace(cfg.spec, **spec_overrides)
    return cfg


def test_ablation_retention_policy():
    def sweep():
        out = {}
        for policy in ("defer", "nack"):
            result = run(linked_list(8, 512 * scale()),
                         _cfg(retention_policy=policy))
            out[f"{policy}/cycles"] = result.cycles
            out[f"{policy}/restarts"] = result.stats.restarts
            out[f"{policy}/nacks"] = result.stats.total("nacks_sent")
        return out

    result = sweep()
    emit("ablation-retention-policy", "\n".join(
        f"{k:<18}{v}" for k, v in result.items()))
    bench_json("ablation_retention_policy",
               config={"num_cpus": 8, "ops": 512 * scale(),
                       "policies": ["defer", "nack"]},
               results=dict(result))
    assert result["defer/nacks"] == 0
    assert result["nack/nacks"] > 0


def test_ablation_single_block_relaxation():
    def sweep():
        out = {}
        for relaxed in (True, False):
            result = run(single_counter(8, 512 * scale()),
                         _cfg(single_block_relaxation=relaxed))
            key = "relaxed" if relaxed else "strict"
            out[f"{key}/cycles"] = result.cycles
            out[f"{key}/restarts"] = result.stats.restarts
        return out

    result = sweep()
    emit("ablation-single-block-relaxation", "\n".join(
        f"{k:<18}{v}" for k, v in result.items()))
    bench_json("ablation_single_block_relaxation",
               config={"num_cpus": 8, "ops": 512 * scale()},
               results=dict(result))
    assert result["relaxed/restarts"] < result["strict/restarts"]
    assert result["relaxed/cycles"] <= result["strict/cycles"]


def test_ablation_write_buffer_capacity():
    def sweep():
        out = {}
        # cholesky's common columns write 12 lines and its tall columns
        # 80: an 8-entry buffer overflows on *every* column update, a
        # 16-entry buffer only on the tall tail, 64 likewise (tall
        # columns exceed even the paper's buffer -- its 3.7% fallbacks).
        for entries in (8, 16, 64):
            result = run(cholesky(8), _cfg(write_buffer_entries=entries))
            out[f"wb{entries}/cycles"] = result.cycles
            out[f"wb{entries}/fallbacks"] = result.stats.total(
                "resource_fallbacks")
            out[f"wb{entries}/elided"] = result.stats.total(
                "elisions_committed")
        return out

    result = sweep()
    emit("ablation-write-buffer", "\n".join(
        f"{k:<18}{v}" for k, v in result.items()))
    bench_json("ablation_write_buffer",
               config={"num_cpus": 8, "write_buffer_entries": [8, 16, 64]},
               results=dict(result))
    # With an 8-line buffer every column update overflows, the elision
    # predictor learns the column locks are hopeless, and far fewer
    # sections commit lock-free than with the paper's 64-line buffer.
    assert result["wb64/elided"] > result["wb8/elided"]


def test_ablation_restart_backoff():
    def sweep():
        out = {}
        for step in (0, 20, 60):
            result = run(single_counter(8, 512 * scale()),
                         _cfg(scheme=SyncScheme.TLR_STRICT_TS,
                              restart_backoff_step=step))
            out[f"backoff{step}/cycles"] = result.cycles
            out[f"backoff{step}/restarts"] = result.stats.restarts
        return out

    result = sweep()
    emit("ablation-restart-backoff", "\n".join(
        f"{k:<22}{v}" for k, v in result.items()))
    bench_json("ablation_restart_backoff",
               config={"num_cpus": 8, "ops": 512 * scale(),
                       "backoff_steps": [0, 20, 60]},
               results=dict(result))
    # Backoff suppresses the restart storm under strict timestamps.
    assert result["backoff20/restarts"] < result["backoff0/restarts"]


def test_ablation_data_network_bandwidth():
    """Sensitivity to data-network bandwidth: the paper's network is
    pipelined (unlimited); throttling deliveries slows the data-hungry
    BASE lock storms more than TLR's queued transfers."""
    def sweep():
        out = {}
        for interval in (0, 4, 16):
            for scheme in (SyncScheme.BASE, SyncScheme.TLR):
                cfg = SystemConfig(num_cpus=8, scheme=scheme)
                cfg.memory = replace(cfg.memory,
                                     data_bandwidth_interval=interval)
                result = run(single_counter(8, 512 * scale()), cfg)
                out[f"bw{interval}/{scheme.value}"] = result.cycles
        return out

    result = sweep()
    emit("ablation-data-bandwidth", "\n".join(
        f"{k:<28}{v}" for k, v in result.items()))
    bench_json("ablation_data_bandwidth",
               config={"num_cpus": 8, "ops": 512 * scale(),
                       "bandwidth_intervals": [0, 4, 16]},
               results=dict(result))
    # Throttling never speeds anything up.
    assert result["bw16/BASE"] >= result["bw0/BASE"]
    assert result["bw16/BASE+SLE+TLR"] >= result["bw0/BASE+SLE+TLR"]


def test_ablation_untimestamped_policy():
    def sweep():
        out = {}
        for policy in ("defer", "abort"):
            result = run(single_counter(4, 256 * scale()),
                         _cfg(num_cpus=4, untimestamped_policy=policy))
            out[f"{policy}/cycles"] = result.cycles
            out[f"{policy}/restarts"] = result.stats.restarts
        return out

    result = sweep()
    emit("ablation-untimestamped-policy", "\n".join(
        f"{k:<18}{v}" for k, v in result.items()))
    bench_json("ablation_untimestamped_policy",
               config={"num_cpus": 4, "ops": 256 * scale(),
                       "policies": ["defer", "abort"]},
               results=dict(result))
