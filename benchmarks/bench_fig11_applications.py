"""Figure 11 + Section 6.3: application performance at 16 processors.

Regenerates the normalized-execution-time bars with the lock/non-lock
stall breakdown for BASE, BASE+SLE and BASE+SLE+TLR, plus the in-text
MCS comparison.  Expected shape (paper): TLR never loses to BASE; the
biggest wins are radiosity and mp3d; MCS loses to BASE on the
frequent-uncontended-lock codes (mp3d, water-nsq) and is competitive
with TLR only on barnes.
"""

from repro.harness.config import SyncScheme
from repro.harness.experiments import figure11_applications
from repro.harness.report import figure11_table, speedup_summary

from conftest import bench_json, emit, engine_kwargs


def test_figure11():
    results = figure11_applications(num_cpus=16, **engine_kwargs())
    emit("figure11-applications",
         figure11_table(results) + "\n" + speedup_summary(results))
    bench_json("fig11_applications",
               config={"num_cpus": 16},
               results={name: {
                   "cycles": {s.value: c for s, c in app.cycles.items()},
                   "speedups_over_base": {
                       s.value: app.speedup(s) for s in app.cycles},
               } for name, app in results.items()})
    # Paper-shape assertions.
    for name, app in results.items():
        assert app.speedup(SyncScheme.TLR) > 0.97, (
            f"{name}: TLR lost to BASE")
    assert results["radiosity"].speedup(SyncScheme.TLR) > 1.3
    assert results["mp3d"].speedup(SyncScheme.TLR) > 1.2
    assert results["mp3d"].speedup(SyncScheme.MCS) < 1.0
    assert results["water-nsq"].speedup(SyncScheme.MCS) < 1.0
