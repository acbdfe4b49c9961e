"""Figure 8: multiple-counter microbenchmark (coarse-grain/no-conflicts).

Regenerates the paper's cycles-vs-processor-count series for BASE, MCS,
BASE+SLE and BASE+SLE+TLR.  Expected shape: BASE degrades with processor
count (lock contention with no data sharing), MCS is flat-ish with a
software overhead, SLE and TLR are identical (no conflicts) and scale.
"""

from repro.harness.config import SyncScheme
from repro.harness.experiments import figure8_multiple_counter
from repro.harness.report import ascii_series, sweep_table

from conftest import (bench_json, emit, engine_kwargs, processor_counts,
                      scale, sweep_results)


def test_figure8():
    result = figure8_multiple_counter(total_increments=1024 * scale(),
                                      processor_counts=processor_counts(),
                                      **engine_kwargs())
    emit("figure8-multiple-counter",
         sweep_table(result) + "\n\n" + ascii_series(result))
    bench_json("fig08_multiple_counter",
               config={"total_increments": 1024 * scale(),
                       "processor_counts": list(processor_counts())},
               results=sweep_results(result))
    # Shape assertions (the paper's qualitative claims).
    n = result.processor_counts[-1]
    assert result.cycles(SyncScheme.TLR, n) == result.cycles(SyncScheme.SLE, n)
    assert result.cycles(SyncScheme.TLR, n) < result.cycles(SyncScheme.MCS, n)
    assert result.cycles(SyncScheme.TLR, n) < result.cycles(SyncScheme.BASE, n)
