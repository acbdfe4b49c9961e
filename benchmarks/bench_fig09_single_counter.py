"""Figure 9: single-counter microbenchmark (fine-grain/high-conflict).

Regenerates the cycles-vs-processors series including the TLR-strict-ts
variant of Section 3.2.  Expected shape: BASE and SLE degrade together
(SLE falls back under conflicts), MCS is scalable at a constant
overhead, TLR queues on the data and stays flat and lowest, and
TLR-strict-ts sits above TLR (protocol-order/timestamp-order mismatch
restarts).
"""

from repro.harness.config import SyncScheme
from repro.harness.experiments import figure9_single_counter
from repro.harness.report import ascii_series, sweep_table

from conftest import (bench_json, emit, engine_kwargs, processor_counts,
                      scale, sweep_results)


def test_figure9():
    result = figure9_single_counter(total_increments=512 * scale(),
                                    processor_counts=processor_counts(),
                                    **engine_kwargs())
    emit("figure9-single-counter",
         sweep_table(result) + "\n\n" + ascii_series(result))
    bench_json("fig09_single_counter",
               config={"total_increments": 512 * scale(),
                       "processor_counts": list(processor_counts())},
               results=sweep_results(result))
    n = result.processor_counts[-1]
    tlr = result.cycles(SyncScheme.TLR, n)
    assert tlr < result.cycles(SyncScheme.BASE, n)
    assert tlr < result.cycles(SyncScheme.MCS, n)
    assert tlr < result.cycles(SyncScheme.SLE, n)
    assert tlr < result.cycles(SyncScheme.TLR_STRICT_TS, n)
