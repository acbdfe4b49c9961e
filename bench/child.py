"""One slice of one workload, in a fresh process (started by run.py,
which puts ``src`` on ``PYTHONPATH``).

Set-up, one untimed warm-up op, then a timed window.  With ``--trace``
the window runs pairs of a plain and a traced op, then profiles a few
plain ops, then probes the workload's representative simulation (profiled
rebuilt path, observer ladder, cache round trip).  The result goes to
``--result`` as JSON; the spans go to ``bench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import statistics
import sys
import time
from pathlib import Path

from repro import RunResult, execute_workload
from repro.harness.runner import result_fingerprint

import scenarios
from layers import LAYERS, LayerMapper, self_time_by_layer
from scenarios import Sample
from tracing import DEFAULT_RUNG, LADDER, Spans, TimedCache, rebuilt_run

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
EXPECTED = BENCH / "expected.json"

#: Share of a traced window spent on plain/traced op pairs, and the
#: point by which the profiled ops end; the probe gets the rest.
TRACE_OPS_END = 0.4
TRACE_PROFILE_END = 0.6
#: Spec fingerprints timed per probe round (each call is microseconds).
SPEC_FINGERPRINT_CALLS = 20
#: The observer ladder runs at least this many rounds, past the window
#: if it must (a 64-CPU round takes about 4 s); windows shorter than
#: SHORT_WINDOW_S (smoke runs) settle for one.
MIN_LADDER_ROUNDS = 3
SHORT_WINDOW_S = 5.0
#: Errors kept verbatim in the result; the rest are only counted.
MAX_ERRORS = 20
#: The host-speed reference is timed this often between ops and this
#: many times before the window; an op is scaled by the reference times
#: taken within REFERENCE_NEAR_S of its end.
REFERENCE_EVERY_S = 0.05
REFERENCE_FIRST = 5
REFERENCE_NEAR_S = 1.0


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value, next_):
        self.value = value
        self.next = next_


def reference_work() -> int:
    """Fixed pure-Python work of about 3 ms: dict traffic, then building
    and walking a linked list of small objects.  It shares no code with
    the program, so its time tracks only how fast the host runs Python
    at the moment."""
    table: dict = {}
    for i in range(20_000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    head = None
    for i in range(4_000):
        head = _Node((i, len(table)), head)
    total = 0
    while head is not None:
        total += head.value[0]
        head = head.next
    return total


class HostSpeed:
    """Times :func:`reference_work` between ops, never during one."""

    def __init__(self):
        self.samples: list = []  # (time.monotonic() at the end, seconds)
        for _ in range(REFERENCE_FIRST):
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append((time.monotonic(), time.perf_counter() - start))

    def between_ops(self) -> None:
        if time.monotonic() - self.samples[-1][0] >= REFERENCE_EVERY_S:
            self.sample()

    def median(self) -> float:
        return statistics.median(s for _t, s in self.samples)

    def near(self, when: float) -> float:
        """Median reference time within REFERENCE_NEAR_S of ``when``."""
        close = [s for t, s in self.samples
                 if abs(t - when) <= REFERENCE_NEAR_S]
        return statistics.median(close) if close else self.median()


class Tally:
    """Counts checked calls and failed checks, and holds every
    fingerprint seen: a key seen with two fingerprints, or one that
    differs from its pin, fails the call that produced it."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.fingerprints: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def add(self, sample: Sample) -> None:
        self.attempted += 1
        errors = list(sample.errors)
        for key, fingerprint in sample.fingerprints.items():
            seen = self.fingerprints.setdefault(key, fingerprint)
            if seen != fingerprint:
                errors.append(f"{key}: nondeterministic fingerprint")
            pinned = self.pins.get(key)
            if pinned is not None and pinned != fingerprint:
                errors.append(f"{key}: fingerprint {fingerprint[:12]} != "
                              f"pinned {pinned[:12]}")
        if errors:
            self.fail("; ".join(errors))


def run_op(scenario, tally: Tally, i: int, traced: bool):
    """One op; an exception fails it and returns ``None`` (the slice's
    program state can no longer be trusted, so the window ends)."""
    scenario.spans.op = f"op:{i}" if traced else None
    try:
        sample = scenario.op(i, traced)
    except Exception as exc:
        tally.attempted += 1
        tally.fail(f"op {i} raised {type(exc).__name__}: {exc}")
        return None
    tally.add(sample)
    return sample


def sample_row(sample: Sample, kind: str) -> dict:
    """``kind``: plain, traced (spans) or profiled; only plain samples
    make end-to-end metrics."""
    return {"wall": sample.wall, "cycles": sample.cycles,
            "overhead": sample.overhead, "details": sample.details,
            "kind": kind, "end": time.monotonic()}


def probe(scenario, tally: Tally, mapper: LayerMapper, deadline: float,
          min_rounds: int) -> dict:
    """Per-layer metrics of the workload's representative simulation.
    Every run is checked against ``execute_workload``'s fingerprint."""
    spans = scenario.spans
    rep = scenario.rep_spec()
    reference = result_fingerprint(execute_workload(rep.build_workload(),
                                                    rep.config))
    tally.add(Sample(0.0, 0, fingerprints={scenario.key(rep): reference}))

    def check(fingerprint: str, what: str) -> None:
        tally.add(Sample(0.0, 0, errors=[] if fingerprint == reference
                         else [f"{what} differs from execute_workload"]))

    spans.op = "probe:profiled"
    profile = cProfile.Profile()
    profile.enable()
    out = rebuilt_run(rep, spans)
    profile.disable()
    check(out["fingerprint"], "rebuilt default path")
    sim_self = self_time_by_layer(pstats.Stats(profile), mapper)["sim"]
    stats = out["result"].stats
    hits, misses = stats.total("l1_hits"), stats.total("l1_misses")
    started = stats.total("elisions_started")
    metrics = {
        "model.cycles": stats.total_cycles,
        "sim.events": out["events"],
        "sim.ns_per_event": sim_self / out["events"] * 1e9,
        "coherence.bus_transactions": stats.bus_transactions,
        "coherence.deferrals": stats.total("requests_deferred"),
        "coherence.nacks": stats.total("nacks_received"),
        "cpu.l1_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "tlr.commit_rate": (stats.elisions_committed / started
                            if started else 0.0),
        "tlr.restarts": stats.restarts,
        "harness.result_bytes": out["result_bytes"],
    }

    walls: list[list[float]] = [[] for _ in LADDER]
    cache = TimedCache(scenario.workdir / "probe-cache", spans)
    rounds = 0
    while rounds < min_rounds or time.monotonic() < deadline:
        # Rotate the starting rung so no observer always runs first, and
        # start each rung on a collected heap: otherwise one rung's
        # garbage is collected during the next and the marginal costs
        # go negative.
        for step in range(len(LADDER)):
            rung = (rounds + step) % len(LADDER)
            spans.op = f"ladder:{rung}:{rounds}"
            gc.collect()
            start = time.perf_counter()
            out = rebuilt_run(rep, spans, rung)
            walls[rung].append(time.perf_counter() - start)
            check(out["fingerprint"], f"ladder rung {LADDER[rung]}")
            if rung == DEFAULT_RUNG:
                result = out["result"]
        spans.op = f"cache:{rounds}"
        cache.put(reference, {"spec": rep.to_dict(),
                              "result": result.to_dict()})
        payload = cache.get(reference)
        with spans.span("harness.from_dict"):
            replayed = RunResult.from_dict(payload["result"])
        check(result_fingerprint(replayed), "cache round trip")
        for _ in range(SPEC_FINGERPRINT_CALLS):
            with spans.span("harness.spec_fingerprint"):
                rep.fingerprint()
        rounds += 1

    # Each observer's marginal cost, as a share of the bare run.
    medians = [statistics.median(w) for w in walls]
    for rung in range(1, len(LADDER)):
        metrics[f"obs.{LADDER[rung]}_overhead"] = (
            (medians[rung] - medians[rung - 1]) / medians[0])
    default = f"ladder:{DEFAULT_RUNG}:"
    for name in ("workloads.build", "harness.machine_build",
                 "harness.finalize", "harness.fingerprint",
                 "harness.to_dict"):
        metrics[f"{name}_s"] = statistics.median(
            spans.durations(name, default))
    for name in ("cache.get", "cache.put", "harness.from_dict",
                 "harness.spec_fingerprint"):
        metrics[f"{name}_s"] = statistics.median(
            spans.durations(name, "cache:"))
    return metrics


class Window:
    """A slice's timed ops: their rows, the host-speed samples taken
    between them, and the peak RSS, read once after the
    ``scenario.rss_ops``-th timed op.  A fixed op count makes the
    reading independent of throughput, yet memory that ops keep alive
    (a server keeps every job it ran) still shows in it."""

    def __init__(self, scenario, tally: Tally):
        self.scenario = scenario
        self.tally = tally
        self.rows: list = []
        self.peak_rss_mb = None
        self.host = HostSpeed()

    def op(self, i: int, traced: bool, kind: str):
        """:func:`run_op`, recorded as a row of ``kind``."""
        sample = run_op(self.scenario, self.tally, i, traced)
        if sample is not None:
            self.rows.append(sample_row(sample, kind))
            if len(self.rows) == self.scenario.rss_ops:
                self.peak_rss_mb = self.scenario.peak_rss_mb()
            self.host.between_ops()
        return sample


def traced_window(window: Window, seconds: float) -> dict:
    scenario, tally = window.scenario, window.tally
    start = time.monotonic()
    traced, ratios = [], []
    i = 1
    while time.monotonic() - start < TRACE_OPS_END * seconds or not traced:
        # A plain and a traced op on the same op index, so the same input
        # (serve_miss, whose jobs must be fresh, gets two seeds of one
        # job size), in alternating order: the ratio holds the cost of
        # tracing, not the difference between inputs.
        pair = {}
        for is_traced in ((False, True) if i % 2 else (True, False)):
            sample = window.op(i, is_traced,
                               "traced" if is_traced else "plain")
            if sample is None:
                raise RuntimeError(tally.errors[-1])
            pair[is_traced] = sample
        traced.append(pair[True])
        ratios.append(pair[True].wall / pair[False].wall)
        i += 1

    mapper = LayerMapper(SRC)
    scenario.profile = profile = cProfile.Profile()
    while True:
        if window.op(i, False, "profiled") is None:
            raise RuntimeError(tally.errors[-1])
        i += 1
        if time.monotonic() - start >= TRACE_PROFILE_END * seconds:
            break
    scenario.profile = None
    layer_time = self_time_by_layer(pstats.Stats(profile), mapper)
    total = sum(layer_time.values())
    metrics = {f"{layer}.self_share": layer_time[layer] / total
               for layer in LAYERS if layer != "serve"}
    metrics["op.overhead_s"] = statistics.median(s.overhead for s in traced)
    metrics["trace.overhead"] = statistics.median(ratios)
    metrics.update(probe(
        scenario, tally, mapper, start + seconds,
        1 if seconds < SHORT_WINDOW_S else MIN_LADDER_ROUNDS))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slice", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    spans = Spans()
    args.workdir.mkdir(parents=True, exist_ok=True)
    scenario = scenarios.make(args.workload, args.seed, args.slice,
                              args.workdir, spans)
    pins = json.loads(EXPECTED.read_text()).get(scenario.pin_group, {})
    tally = Tally(pins)
    per_layer = None
    try:
        scenario.setup()
        if run_op(scenario, tally, 0, False) is None:
            raise RuntimeError(tally.errors[-1])
        setup_s = time.monotonic() - args.spawned_at
        window = Window(scenario, tally)
        if args.trace:
            per_layer = traced_window(window, args.seconds)
        else:
            start = time.monotonic()
            i = 1
            while (time.monotonic() - start < args.seconds
                   or window.peak_rss_mb is None):
                if window.op(i, False, "plain") is None:
                    break
                i += 1
        if window.peak_rss_mb is None:  # a failed op or a short window
            window.peak_rss_mb = scenario.peak_rss_mb()
    finally:
        scenario.close()
    host = window.host
    for row in window.rows:
        row["reference_s"] = host.near(row.pop("end"))
    if args.trace:
        spans.write_chrome(BENCH / "out" / f"trace-{args.workload}.json",
                           args.workload)
    args.result.write_text(json.dumps({
        "setup_s": setup_s, "peak_rss_mb": window.peak_rss_mb,
        "samples": window.rows, "reference_s": host.median(),
        "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors, "fingerprints": tally.fingerprints,
        "per_layer": per_layer}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
