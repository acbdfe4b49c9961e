"""Figure 10: doubly-linked-list microbenchmark (dynamic conflicts).

Expected shape: BASE and SLE degrade under contention (SLE cannot decide
when to speculate and falls back), MCS is scalable with overhead, TLR
exploits enqueue/dequeue concurrency that no single lock can expose.
"""

from repro.harness.config import SyncScheme
from repro.harness.experiments import figure10_linked_list
from repro.harness.report import ascii_series, sweep_table

from conftest import (bench_json, emit, engine_kwargs, processor_counts,
                      scale, sweep_results)


def test_figure10():
    result = figure10_linked_list(total_ops=512 * scale(),
                                  processor_counts=processor_counts(),
                                  **engine_kwargs())
    emit("figure10-linked-list",
         sweep_table(result) + "\n\n" + ascii_series(result))
    bench_json("fig10_linked_list",
               config={"total_ops": 512 * scale(),
                       "processor_counts": list(processor_counts())},
               results=sweep_results(result))
    n = result.processor_counts[-1]
    tlr = result.cycles(SyncScheme.TLR, n)
    assert tlr < result.cycles(SyncScheme.BASE, n)
    assert tlr < result.cycles(SyncScheme.MCS, n)
    assert tlr < result.cycles(SyncScheme.SLE, n)
