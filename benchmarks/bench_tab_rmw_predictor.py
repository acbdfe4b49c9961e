"""Section 6.3 in-text experiment: read-modify-write predictor effect.

Speedup of BASE (with the PC-indexed predictor collapsing load->store
pairs in critical sections into one exclusive fetch) over BASE-no-opt.
The paper reports 1.00-1.33 per application; the predictor makes the
BASE case highly optimized and TLR's reported gains conservative.
"""

from repro.harness.experiments import table_rmw_predictor
from repro.harness.report import dict_table

from conftest import bench_json, emit, engine_kwargs


def test_rmw_predictor():
    result = table_rmw_predictor(num_cpus=16, **engine_kwargs())
    emit("table-rmw-predictor", dict_table(result, "BASE / BASE-no-opt"))
    bench_json("tab_rmw_predictor",
               config={"num_cpus": 16},
               results={"speedups_base_over_base_noopt": dict(result)})
    # The predictor never hurts and helps at least one application.
    assert all(speedup > 0.95 for speedup in result.values())
    assert any(speedup > 1.02 for speedup in result.values())
