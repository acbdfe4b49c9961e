"""Section 6.3 in-text experiment: coarse-grain vs fine-grain mp3d.

One lock over all cells against per-cell locks.  Expected shape: the
single coarse lock is catastrophic for BASE and MCS (severe contention)
but *faster* than fine grain under TLR (smaller data footprint, better
memory behaviour) -- the paper reports coarse-TLR beating fine-BASE by
2.40x and fine-TLR by 1.70x.
"""

from repro.harness.experiments import table_coarse_vs_fine
from repro.harness.report import dict_table

from conftest import bench_json, emit, engine_kwargs


def test_coarse_vs_fine():
    result = table_coarse_vs_fine(num_cpus=16, **engine_kwargs())
    emit("table-coarse-vs-fine", dict_table(result))
    bench_json("tab_coarse_vs_fine",
               config={"num_cpus": 16}, results=dict(result))
    assert result["speedup_tlr_coarse_over_base_fine"] > 1.3
    assert result["speedup_tlr_coarse_over_tlr_fine"] > 1.0
    assert result["coarse/BASE"] > 2 * result["fine/BASE"]
