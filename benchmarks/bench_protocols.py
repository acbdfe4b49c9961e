"""Substrate comparison: TLR on broadcast snooping vs directory.

The paper's claim that TLR requires no coherence-protocol changes is
put to work: the identical TLR logic runs on the Gigaplane-like ordered
bus (the paper's machine) and on a line-interleaved directory protocol
over an unordered network.  The qualitative result -- TLR's win over
BASE -- must hold on both; absolute times differ with the substrate's
latency structure.
"""

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.parallel import run
from repro.workloads.microbench import linked_list, single_counter

from conftest import bench_json, emit, scale


def test_protocol_comparison():
    def sweep():
        out = {}
        for protocol in ("snoop", "directory"):
            for scheme in (SyncScheme.BASE, SyncScheme.TLR):
                for name, builder in (("single", single_counter),
                                      ("list", linked_list)):
                    cfg = SystemConfig(num_cpus=8, scheme=scheme,
                                       protocol=protocol)
                    result = run(builder(8, 512 * scale()), cfg)
                    out[f"{protocol}/{name}/{scheme.value}"] = result.cycles
        return out

    result = sweep()
    emit("protocol-comparison", "\n".join(
        f"{k:<36}{v}" for k, v in result.items()))
    bench_json("protocols",
               config={"num_cpus": 8, "ops": 512 * scale(),
                       "protocols": ["snoop", "directory"]},
               results={"cycles": dict(result),
                        "speedups_over_base": {
                            f"{p}/{w}": result[f"{p}/{w}/BASE"]
                            / result[f"{p}/{w}/BASE+SLE+TLR"]
                            for p in ("snoop", "directory")
                            for w in ("single", "list")}})
    for protocol in ("snoop", "directory"):
        for name in ("single", "list"):
            assert (result[f"{protocol}/{name}/BASE+SLE+TLR"]
                    < result[f"{protocol}/{name}/BASE"]), (
                f"TLR lost to BASE on {protocol}/{name}")
