"""The benchmark's workloads, each driven only through public API.

A scenario is set up once per slice, then runs operations one at a
time.  ``op(i, traced)`` times only the call a user would make and
returns a sample: its wall time, the simulated cycles of the results it
returned, the host time it spent outside simulation, the fingerprints
of those results, and any check that failed.  Inputs depend only on the
run seed, the slice index and the op index.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import shutil
import time
from dataclasses import dataclass, field

from repro import (FailedRun, ResultCache, RunResult, RunSpec, SyncScheme,
                   SystemConfig, execute_workload)
from repro.harness import parallel
from repro.harness.runner import result_fingerprint
from repro.harness.spec import JobSpec, scheme_to_str

from serve_client import ServeClient, ServeProcess
from tracing import Spans, TimedCache, rebuilt_run

#: Simulation workloads: (workload, CPUs, size knob, size) and the
#: SystemConfig fields that differ from the TLR defaults.
SIM_WORKLOADS = {
    "contended_list": (("linked-list", 8, "total_ops", 256), {}),
    "private_counters": (("multiple-counter", 8, "total_increments", 2048),
                         {}),
    "big_directory": (("linked-list", 64, "total_ops", 64),
                      {"protocol": "directory"}),
}
#: Simulation workloads cycle through this many seeds, starting at the
#: run seed, so a seed recurs within a run and its fingerprint can be
#: checked for determinism.
SIM_SEEDS = 8
#: Sweep grid: workloads x schemes x CPU counts x 2 seeds, 128 ops each.
GRID_WORKLOADS = {"single-counter": "total_increments",
                  "multiple-counter": "total_increments",
                  "linked-list": "total_ops"}
GRID_SCHEMES = (SyncScheme.BASE, SyncScheme.TLR)
GRID_CPUS = (2, 4, 8)
GRID_OPS = 128
SWEEP_JOBS = 2
#: serve_hit resubmits this many jobs, each completed once at set-up.
HIT_JOBS = 4
#: serve_miss seeds: run seed * stride + slice * (stride // 10) + the
#: slice's job number.
MISS_SEED_STRIDE = 100_000
#: Served misses recomputed in-process per slice (hit == miss check).
MISS_LOCAL_CHECKS = 2


@dataclass
class Sample:
    wall: float
    cycles: int
    overhead: float = 0.0  # host seconds of the op not spent simulating
    fingerprints: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    details: dict = field(default_factory=dict)  # printed, not gated


def sim_spec(workload: str, cpus: int, size_key: str, size: int,
             seed: int, **config) -> RunSpec:
    return RunSpec(workload, SystemConfig(num_cpus=cpus,
                                          scheme=SyncScheme.TLR, seed=seed,
                                          **config),
                   {size_key: size})


def grid_specs(seed: int) -> list[RunSpec]:
    return [RunSpec(workload, SystemConfig(num_cpus=cpus, scheme=scheme,
                                           seed=seed + offset),
                    {size_key: GRID_OPS})
            for (workload, size_key), scheme, cpus, offset
            in itertools.product(GRID_WORKLOADS.items(), GRID_SCHEMES,
                                 GRID_CPUS, (0, 1))]


def cell_key(spec: RunSpec) -> str:
    return (f"{spec.workload}/{scheme_to_str(spec.config.scheme)}/"
            f"{spec.config.num_cpus}/{spec.config.seed}")


def serve_spec(seed: int) -> RunSpec:
    return sim_spec("linked-list", 4, "total_ops", 128, seed)


class Scenario:
    """Base: a per-slice work directory, a span log and an optional
    profiler that covers only the timed part of each op.

    ``pin_group`` names this workload's section of ``expected.json``;
    :meth:`key` is the name a result's fingerprint is checked under.
    """

    pin_group = ""
    #: Peak RSS is read after this many timed ops: enough that memory
    #: the ops keep alive shows, few enough to fit a slice's window.
    rss_ops = 4

    def __init__(self, seed: int, slice_index: int, workdir, spans: Spans):
        self.seed = seed
        self.slice = slice_index
        self.workdir = workdir
        self.spans = spans
        self.profile = None  # a cProfile.Profile while profiling

    def timed(self, fn, traced: bool):
        """``(seconds, fn())``; traced calls get an ``op`` span."""
        if self.profile is not None:
            self.profile.enable()
        start = time.perf_counter()
        try:
            if traced:
                with self.spans.span("op"):
                    value = fn()
            else:
                value = fn()
        finally:
            wall = time.perf_counter() - start
            if self.profile is not None:
                self.profile.disable()
        return wall, value

    def key(self, spec: RunSpec) -> str:
        return str(spec.config.seed)

    def setup(self) -> None:
        pass

    def rep_spec(self) -> RunSpec:
        """The one simulation that stands for this workload in the
        probe (rebuilt path, observer ladder, cache round trip)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class SimScenario(Scenario):
    """One ``execute_workload`` call on the default path (metrics and
    lock profiler attached) per op; traced ops rebuild that path from
    public calls with a span around each step."""

    def __init__(self, *args, name: str, spec_args: tuple, config: dict):
        super().__init__(*args)
        self.pin_group = name
        self.spec_args = spec_args
        self.config = config

    def spec(self, seed: int) -> RunSpec:
        return sim_spec(*self.spec_args, seed, **self.config)

    def rep_spec(self) -> RunSpec:
        return self.spec(self.seed)

    def op(self, i: int, traced: bool) -> Sample:
        # The warm-up (op 0) is the same in every slice, so set-up times
        # compare; later ops start each slice at a different seed, so
        # short slices still cover the whole cycle between them.
        offset = (2 * self.slice + i) % SIM_SEEDS if i else 0
        spec = self.spec(self.seed + offset)
        if traced:
            wall, out = self.timed(lambda: rebuilt_run(spec, self.spans),
                                   True)
            result, fingerprint = out["result"], out["fingerprint"]
            overhead = wall - out["run_s"]
        else:
            wall, result = self.timed(lambda: execute_workload(
                spec.build_workload(), spec.config, validate=spec.validate),
                False)
            fingerprint = result_fingerprint(result)
            overhead = 0.0
        return Sample(wall, result.cycles, overhead,
                      {self.key(spec): fingerprint})


class SweepScenario(Scenario):
    """The 36-cell grid through ``parallel.execute(jobs=2)``: cold into
    a fresh cache directory, or warm, replayed from a cache filled at
    set-up."""

    pin_group = "sweep"
    rss_ops = 2  # a cold sweep takes most of a second

    def __init__(self, *args, warm: bool):
        super().__init__(*args)
        self.warm = warm
        self.specs = grid_specs(self.seed)
        self.cold_fps: dict = {}
        self._dirs = itertools.count()

    def key(self, spec: RunSpec) -> str:
        return cell_key(spec)

    def rep_spec(self) -> RunSpec:
        return self.specs[-1]  # linked-list, TLR, 8 CPUs

    def _sweep(self, cache_dir, traced: bool, simulated: int) -> Sample:
        cache = (TimedCache(cache_dir, self.spans) if traced
                 else ResultCache(cache_dir))
        wall, (outcomes, telemetry) = self.timed(lambda: parallel.execute(
            self.specs, jobs=SWEEP_JOBS, cache=cache), traced)
        sample = Sample(wall, 0, wall - telemetry.busy_seconds / SWEEP_JOBS)
        if (telemetry.simulated, telemetry.cache_hits) != (
                simulated, len(self.specs) - simulated):
            sample.errors.append(
                f"sweep simulated {telemetry.simulated} and replayed "
                f"{telemetry.cache_hits} of {len(self.specs)} cells")
        for spec, outcome in zip(self.specs, outcomes):
            if isinstance(outcome, FailedRun):
                sample.errors.append(f"{cell_key(spec)} failed: "
                                     f"{outcome.error}")
                continue
            sample.cycles += outcome.cycles
            sample.fingerprints[cell_key(spec)] = result_fingerprint(outcome)
        return sample

    def setup(self) -> None:
        if self.warm:
            self.cache_dir = self.workdir / "cache-warm"
            sample = self._sweep(self.cache_dir, False, len(self.specs))
            if sample.errors:
                raise RuntimeError("; ".join(sample.errors))
            self.cold_fps = sample.fingerprints

    def op(self, i: int, traced: bool) -> Sample:
        if self.warm:
            sample = self._sweep(self.cache_dir, traced, 0)
            if sample.fingerprints != self.cold_fps:
                sample.errors.append("warm replay differs from cold sweep")
            return sample
        cache_dir = self.workdir / f"cache-{next(self._dirs)}"
        try:
            return self._sweep(cache_dir, traced, len(self.specs))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


class ServeScenario(Scenario):
    """Run jobs through a ``repro serve`` subprocess (2 worker threads,
    no pool) with a fresh cache: each op is a job that simulates (miss)
    or one the job cache replays (hit)."""

    pin_group = "serve"
    rss_ops = 20  # the server keeps each finished job, about 20 KB

    def __init__(self, *args, hit: bool):
        super().__init__(*args)
        self.hit = hit
        self.server = None
        self.hit_fps: dict = {}
        self._misses = itertools.count()

    def rep_spec(self) -> RunSpec:
        return serve_spec(self.seed)

    def setup(self) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.server = ServeProcess(self.workdir / "serve-cache", env)
        self.client = ServeClient(self.server.host, self.server.port)
        if self.hit:
            for k in range(HIT_JOBS):
                sample = self._job(self.seed + k, cached=False, traced=False)
                if sample.errors:
                    raise RuntimeError("; ".join(sample.errors))
                self.hit_fps.update(sample.fingerprints)

    def _job(self, seed: int, cached: bool, traced: bool) -> Sample:
        spec = serve_spec(seed)
        job = JobSpec.run(spec).to_dict()
        wall, out = self.timed(lambda: self.client.run_job(
            job, self.spans if traced else None), traced)
        doc = json.loads(out["body"])
        sample = Sample(wall, 0, details=dict(out["phases"]))
        sample.details["serve.response_bytes"] = len(out["body"])
        payload = doc.get("result") or {}
        if (doc.get("state"), out["terminal"]["event"]) != ("done", "done"):
            sample.errors.append(f"job {doc.get('id')} ended "
                                 f"{doc.get('state')}: {doc.get('error')}")
            return sample
        if out["posted"].get("coalesced"):
            sample.errors.append(f"job {doc['id']} coalesced")
        if payload.get("cached") is not cached:
            sample.errors.append(f"job {doc['id']} cached="
                                 f"{payload.get('cached')}, want {cached}")
        outcome = payload.get("result") or {}
        if not outcome.get("ok"):
            sample.errors.append(f"job {doc['id']} failed run")
            return sample
        result = RunResult.from_dict(outcome["outcome"])
        sample.cycles = result.cycles
        # A replay reports the elapsed time of the run it replays, so
        # only a miss has simulation time to subtract.
        executed = 0.0 if cached else payload.get("elapsed", 0.0)
        sample.details["serve.exec"] = executed
        sample.overhead = wall - executed
        sample.fingerprints[self.key(spec)] = result_fingerprint(result)
        return sample

    def op(self, i: int, traced: bool) -> Sample:
        if self.hit:
            seed = self.seed + i % HIT_JOBS
            sample = self._job(seed, cached=True, traced=traced)
            served = sample.fingerprints.get(str(seed))
            if served is not None and served != self.hit_fps[str(seed)]:
                sample.errors.append(f"hit {seed} differs from its miss")
            return sample
        # Numbered by job, not by op index: a traced window runs two ops
        # per index, and a resubmitted seed would be a hit.
        n = next(self._misses)
        seed = (self.seed * MISS_SEED_STRIDE
                + self.slice * (MISS_SEED_STRIDE // 10) + n)
        sample = self._job(seed, cached=False, traced=traced)
        if n < MISS_LOCAL_CHECKS and not sample.errors:
            spec = serve_spec(seed)
            local = result_fingerprint(execute_workload(
                spec.build_workload(), spec.config))
            if local != sample.fingerprints[str(seed)]:
                sample.errors.append(f"served {seed} differs from a "
                                     f"local run")
        return sample

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


def make(name: str, seed: int, slice_index: int, workdir,
         spans: Spans) -> Scenario:
    base = (seed, slice_index, workdir, spans)
    if name in SIM_WORKLOADS:
        spec_args, config = SIM_WORKLOADS[name]
        return SimScenario(*base, name=name, spec_args=spec_args,
                           config=config)
    if name in ("sweep_cold", "sweep_warm"):
        return SweepScenario(*base, warm=name == "sweep_warm")
    if name in ("serve_miss", "serve_hit"):
        return ServeScenario(*base, hit=name == "serve_hit")
    raise KeyError(f"unknown workload {name!r}")
