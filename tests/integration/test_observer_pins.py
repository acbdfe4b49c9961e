"""Observer output pins.

Golden fingerprints prove observers do not move the *simulation*; they
say nothing about what the observers themselves saw.  Record/replay
only checks that a log agrees with itself.  These pins close that gap:
for a small matrix of runs they fix the exact output of every observer
-- the flight-recorder log bytes, the tracer's kind histogram, rendered
events and spans, the lock profile, the metrics export, the footprint
recorder's commit list and plain-write log, and the monitors' check
counts.  An observation seam that fires at a different point, in a
different order or with different arguments changes at least one
digest here.

Regenerate a digest only for a deliberate change of observer output,
never to make a refactor pass.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.coherence.cache import CacheArray
from repro.harness.config import SchedConfig, SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.spec import RunSpec
from repro.obs import LockProfiler, MachineMetrics, default_observers
from repro.record import record_run
from repro.sim.taps import Point
from repro.sim.trace import Tracer
from repro.verify import FootprintRecorder
from repro.verify.monitors import MonitorSuite


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _dense_ids(text: str) -> str:
    """Request ids come from a process-global counter; renumber them in
    first-seen order (as the flight recorder does) so a digest does not
    depend on what ran earlier in the process."""
    ids: dict[str, int] = {}
    return re.sub(r"(#|req_id=)(\d+)", lambda m: m.group(1) + str(
        ids.setdefault(m.group(2), len(ids) + 1)), text)


def _spec(workload: str, protocol: str = "snoop", policy: str = None,
          sched: SchedConfig = None, write_buffer: int = None,
          ops: int = 96) -> RunSpec:
    config = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR, seed=0,
                          protocol=protocol)
    if policy is not None:
        config = config.with_policy(policy)
    if sched is not None:
        config = replace(config, sched=sched)
    if write_buffer is not None:
        config = replace(config, spec=replace(
            config.spec, write_buffer_entries=write_buffer))
    size = ("total_ops" if workload == "linked-list"
            else "total_increments")
    return RunSpec(workload=workload, config=config,
                   workload_args={size: ops})


CASES = {
    "linked-list/snoop": _spec("linked-list"),
    "linked-list/directory": _spec("linked-list", "directory"),
    "multiple-counter/snoop": _spec("multiple-counter"),
    "multiple-counter/directory": _spec("multiple-counter", "directory"),
    # NACK retention exercises the nack points, a two-entry write
    # buffer the resource-fallback aborts and lock-fallback plain
    # writes, and the scheduler case the preempt/migrate/switch points.
    "linked-list/snoop/nack": _spec("linked-list", policy="nack"),
    "linked-list/snoop/wb2": _spec("linked-list", write_buffer=2),
    "multiple-counter/snoop/sched": _spec(
        "multiple-counter", sched=SchedConfig(
            scheduler="rr", quantum=400, threads_per_cpu=2,
            migrate=True)),
}


def observe(spec: RunSpec) -> dict:
    """Every observer's output for one spec, as short digests."""
    recorded = record_run(spec)
    machine = Machine(spec.config)
    metrics = MachineMetrics().attach(machine)
    profiler = LockProfiler().attach(machine)
    tracer = Tracer().attach(machine)
    footprint = FootprintRecorder().attach(machine)
    monitors = MonitorSuite(machine).attach()
    machine.run_workload(spec.build_workload())
    profiler.publish(metrics.registry)
    return {
        "log": _sha(recorded.log.hex()),
        "fingerprint": recorded.fingerprint[:16],
        "tracer_counts": tracer.counts(),
        "events": _sha(_dense_ids(tracer.render())),
        "spans": _sha("\n".join(span.render() for span in tracer.spans)),
        "profile": _sha(json.dumps(profiler.snapshot(), sort_keys=True)),
        "metrics": _sha(json.dumps(metrics.finalize(machine),
                                   sort_keys=True)),
        "committed": _sha(repr(footprint.committed)),
        "footprint_log": _sha(repr(footprint.log)),
        "plain_writes": footprint.plain_writes,
        "monitor_checks": monitors.checks,
        "monitor_losses": monitors.losses,
    }


#: Computed on the tree before the observation-seam refactor.  Re-pinned
#: twice since, both times ``metrics`` and ``log`` only: the export lost
#: the marker and probe flight-time pairing, then the kernel compaction count;
#: the log header carries the fingerprint version, bumped to 10 and then
#: 11 (the records are unchanged).  Re-pinned once more, ``log`` only:
#: the header's spec lost the retired ``retention_policy`` key and its
#: version went to 12 (the records are unchanged).  Re-pinned once more,
#: ``events`` only, for the five cases with aborts: the ``misspec``
#: point carries the aborting cpu as its third argument, which the
#: Tracer's rendered events show.
PINS: dict = {
    "linked-list/directory": {
        "committed": "808f43ebcf777f85",
        "events": "3cf295887e2069cb",
        "fingerprint": "4e9ba92498e5ca93",
        "footprint_log": "ef3d07b2b7c9c652",
        "log": "06017e521b0e9df4",
        "metrics": "4895d391fb0a58dd",
        "monitor_checks": 1458,
        "monitor_losses": 60,
        "plain_writes": 18,
        "profile": "79fab01ede4a84b2",
        "spans": "026c5b3851af7d2d",
        "tracer_counts": {
            "commit": 192,
            "data": 642,
            "defer": 149,
            "forward": 634,
            "invalidation": 31,
            "loss": 60,
            "marker": 208,
            "misspec": 60,
            "probe": 44,
            "request": 644,
            "service": 634,
            "txn-begin": 252,
            "txn-commit": 192
        }
    },
    "linked-list/snoop": {
        "committed": "8c601d486fa71cdd",
        "events": "912966ea2d99b3c4",
        "fingerprint": "b0198d2bb44e712d",
        "footprint_log": "e4fdbeb9e57c6e7a",
        "log": "98f19be1788d7c97",
        "metrics": "55782243dbb77f48",
        "monitor_checks": 1439,
        "monitor_losses": 53,
        "plain_writes": 18,
        "profile": "073e5f6ec79f4df2",
        "spans": "7c09924b9ea2200a",
        "tracer_counts": {
            "commit": 192,
            "data": 635,
            "defer": 157,
            "forward": 627,
            "invalidation": 18,
            "loss": 53,
            "marker": 219,
            "misspec": 53,
            "probe": 41,
            "request": 637,
            "service": 627,
            "txn-begin": 245,
            "txn-commit": 192
        }
    },
    "linked-list/snoop/nack": {
        "committed": "2da7b95a6b712222",
        "events": "55e68d7ee4404fb7",
        "fingerprint": "e913ee6477299cf2",
        "footprint_log": "e4fdbeb9e57c6e7a",
        "log": "6b25703d17168b01",
        "metrics": "a59e7ef8ae627b81",
        "monitor_checks": 1377,
        "monitor_losses": 67,
        "plain_writes": 18,
        "profile": "f5660972e7ce05d6",
        "spans": "eb4034b2a19615a7",
        "tracer_counts": {
            "commit": 192,
            "data": 651,
            "defer": 50,
            "forward": 643,
            "invalidation": 30,
            "loss": 67,
            "marker": 105,
            "misspec": 67,
            "nack": 118,
            "probe": 17,
            "request": 772,
            "service": 643,
            "txn-begin": 259,
            "txn-commit": 192
        }
    },
    "linked-list/snoop/wb2": {
        "committed": "70d6cf1b3f24f514",
        "events": "517da5890e87d2e2",
        "fingerprint": "39eba66616ab12b6",
        "footprint_log": "fe97afc7bb097663",
        "log": "7747afbebd27bf96",
        "metrics": "2ea843c87281e87f",
        "monitor_checks": 3661,
        "monitor_losses": 328,
        "plain_writes": 594,
        "profile": "383da199bf94764f",
        "spans": "9e90bbe2970d2941",
        "tracer_counts": {
            "abort": 4,
            "commit": 96,
            "data": 1452,
            "defer": 178,
            "forward": 1444,
            "invalidation": 485,
            "loss": 328,
            "marker": 393,
            "misspec": 332,
            "probe": 200,
            "request": 1554,
            "service": 1444,
            "txn-begin": 428,
            "txn-commit": 96
        }
    },
    "multiple-counter/directory": {
        "committed": "f3fcaa25e9ecc2b2",
        "events": "20949a906f315a5a",
        "fingerprint": "1183c4be6ad62c81",
        "footprint_log": "a8cd90da08598703",
        "log": "52a7f85f8bbb5589",
        "metrics": "2213ea442d3ae54a",
        "monitor_checks": 11,
        "monitor_losses": 0,
        "plain_writes": 0,
        "profile": "7205d9e5b4c8d577",
        "spans": "0c4bcc8c72aa03ab",
        "tracer_counts": {
            "commit": 96,
            "data": 8,
            "forward": 3,
            "marker": 3,
            "request": 8,
            "service": 3,
            "txn-begin": 96,
            "txn-commit": 96
        }
    },
    "multiple-counter/snoop": {
        "committed": "28d6e15c8edd0942",
        "events": "f341a45dacc9ceeb",
        "fingerprint": "97fe218782470f06",
        "footprint_log": "a8cd90da08598703",
        "log": "6bc9db8d53266dd6",
        "metrics": "a51cad0819b7a640",
        "monitor_checks": 11,
        "monitor_losses": 0,
        "plain_writes": 0,
        "profile": "8ac4a30515e4c3f8",
        "spans": "e1a80d43b8eb43c8",
        "tracer_counts": {
            "commit": 96,
            "data": 8,
            "forward": 3,
            "marker": 3,
            "request": 8,
            "service": 3,
            "txn-begin": 96,
            "txn-commit": 96
        }
    },
    "multiple-counter/snoop/sched": {
        "committed": "0172e0d2f88c3ad2",
        "events": "ff45a11de6ae2a76",
        "fingerprint": "bbb39982e5fc0f4c",
        "footprint_log": "9903251eb5b990c7",
        "log": "6e3e2527325666e3",
        "metrics": "bf7d640a3041deec",
        "monitor_checks": 281,
        "monitor_losses": 1,
        "plain_writes": 129,
        "profile": "f6771cb5a9d2c39a",
        "spans": "2e19bf50695c0194",
        "tracer_counts": {
            "abort": 3,
            "commit": 53,
            "data": 119,
            "forward": 114,
            "invalidation": 30,
            "loss": 1,
            "marker": 17,
            "misspec": 4,
            "request": 137,
            "service": 114,
            "txn-begin": 57,
            "txn-commit": 53
        }
    }
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_observer_output_is_pinned(case):
    assert observe(CASES[case]) == PINS[case]


#: Subscriber calls the default observers (``default_observers``: metrics
#: and the lock profiler) take per run, at seed 0, on the benchmark's
#: ``private_counters``, ``contended_list`` and ``big_directory`` specs
#: and the serve job spec: (workload, CPUs, size knob, size, protocol,
#: calls).  The count is exact and repeats from run to run; it may
#: fall, never rise.  Each closed transaction costs one call (its
#: commit or its misspec), each fill one, each obligation service one
#: and each deferral one more.
DEFAULT_PATH_CALLS = {
    "private_counters": ("multiple-counter", 8, "total_increments", 2048,
                         "snoop", 2071),
    "contended_list": ("linked-list", 8, "total_ops", 256, "snoop", 5563),
    "big_directory": ("linked-list", 64, "total_ops", 64, "directory",
                      4082),
    "serve_job": ("linked-list", 4, "total_ops", 128, "snoop", 2266),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_PATH_CALLS))
def test_default_path_subscriber_calls_do_not_grow(name):
    workload, cpus, size_key, size, protocol, pinned = \
        DEFAULT_PATH_CALLS[name]
    spec = RunSpec(workload=workload,
                   config=SystemConfig(num_cpus=cpus, scheme=SyncScheme.TLR,
                                       seed=0, protocol=protocol),
                   workload_args={size_key: size})
    machine = Machine(spec.config)
    default_observers(machine)
    calls = 0

    def counted(fn):
        def call(*args):
            nonlocal calls
            calls += 1
            fn(*args)
        return call

    for point in vars(machine.taps).values():
        if isinstance(point, Point):
            point[:] = [counted(fn) for fn in point]
    machine.run_workload(spec.build_workload())
    assert calls <= pinned, (
        f"the default observers took {calls} subscriber calls, "
        f"more than the pinned {pinned}")


#: L1 lookups (``CacheArray.lookup`` calls) per run, default observers
#: attached, TLR at seed 0: (workload, CPUs, size knob, size, protocol,
#: lookups).  The first two are the benchmark's ``private_counters`` and
#: ``contended_list`` specs, the third its ``big_directory`` spec.  Every
#: memory op looks its line up once, hit or miss; the count is exact and
#: repeats from run to run; it may fall, never rise.
LOOKUPS_PER_RUN = {
    "multiple-counter": ("multiple-counter", 8, "total_increments", 2048,
                         "snoop", 8229),
    "linked-list": ("linked-list", 8, "total_ops", 256, "snoop", 12378),
    "linked-list-64-directory": ("linked-list", 64, "total_ops", 64,
                                 "directory", 45685),
}


@pytest.mark.parametrize("name", sorted(LOOKUPS_PER_RUN))
def test_cache_lookups_per_run_do_not_grow(name, monkeypatch):
    workload, cpus, size_key, size, protocol, pinned = LOOKUPS_PER_RUN[name]
    spec = RunSpec(workload=workload,
                   config=SystemConfig(num_cpus=cpus, scheme=SyncScheme.TLR,
                                       seed=0, protocol=protocol),
                   workload_args={size_key: size})
    callers: Counter = Counter()
    lookup = CacheArray.lookup

    def counted(self, line_addr):
        callers[sys._getframe(1).f_code.co_name] += 1
        return lookup(self, line_addr)

    monkeypatch.setattr(CacheArray, "lookup", counted)
    machine = Machine(spec.config)
    default_observers(machine)
    machine.run_workload(spec.build_workload())
    calls = sum(callers.values())
    assert calls <= pinned, (
        f"the run made {calls} L1 lookups, more than the pinned {pinned}; "
        f"by calling function: {dict(callers.most_common())}")
