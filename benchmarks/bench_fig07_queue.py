"""Figure 7 / Section 6.1: queueing on the data itself.

Four processors hammer one cache line under TLR: requests are deferred
and the line is handed processor-to-processor at commit.  The paper's
claim is that no transaction needs to restart and no lock requests are
generated; we report restarts, deferrals, and committed elisions.
"""

from repro.harness.experiments import figure7_queue_on_data
from repro.harness.report import dict_table

from conftest import bench_json, emit, scale


def test_figure7():
    result = figure7_queue_on_data(num_cpus=4,
                                   total_increments=256 * scale())
    emit("figure7-queue-on-data", dict_table(result))
    bench_json("fig07_queue",
               config={"num_cpus": 4, "total_increments": 256 * scale()},
               results=dict(result))
    assert result["elisions_committed"] == result["critical_sections"] \
        or result["restarts"] < result["critical_sections"] // 4
    assert result["deferrals"] > 0
