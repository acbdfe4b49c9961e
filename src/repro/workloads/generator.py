"""Parameterized synthetic workload generation.

:class:`WorkloadSpec` is the declarative form of the knobs the
application kernels in :mod:`repro.workloads.apps` are hand-tuned
instances of: how many lock-protected regions, how popular each is, how
big a critical section's footprint is, how much work happens outside.
``generate`` turns a spec into a runnable, self-validating
:class:`Workload`; ``random_spec`` draws a spec from a seeded RNG within
sane bounds (used by the property-test suite and for fuzzing the
protocol with diverse locking behaviours).

This is also the extension point for users studying their own workload
shapes: describe the locking signature, generate, and run under any
scheme.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.runtime.env import ThreadEnv
from repro.runtime.program import Workload
from repro.workloads.common import AddressSpace


@dataclass
class WorkloadSpec:
    """Declarative locking signature for a synthetic workload."""

    name: str = "generated"
    num_threads: int = 4
    iters_per_thread: int = 16
    num_regions: int = 4
    data_lines_per_region: int = 1
    cs_reads: int = 0
    cs_writes: int = 1
    cs_work: int = 10
    outside_work: int = 100
    region_weights: Optional[list[float]] = None  # None = uniform
    rotate_writes: bool = False   # thread-dependent write order
    single_lock: bool = False     # one lock over all regions
    nesting: int = 1              # critical-section nesting depth
    fair_delay_hi: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_threads < 1 or self.num_regions < 1:
            raise ValueError("need at least one thread and one region")
        if self.cs_writes < 0 or self.cs_reads < 0:
            raise ValueError("negative critical-section footprint")
        if self.nesting < 1:
            raise ValueError("nesting must be >= 1")
        if self.region_weights is not None \
                and len(self.region_weights) != self.num_regions:
            raise ValueError("one weight per region required")


def random_spec(rng: random.Random, num_threads: int = 4) -> WorkloadSpec:
    """Draw a random but well-formed spec (bounded for test runtimes)."""
    num_regions = rng.randint(1, 6)
    weights = None
    if rng.random() < 0.5:
        weights = [rng.uniform(0.5, 8.0) for _ in range(num_regions)]
    return WorkloadSpec(
        name=f"fuzz-{rng.randrange(1 << 16)}",
        num_threads=num_threads,
        iters_per_thread=rng.randint(2, 10),
        num_regions=num_regions,
        data_lines_per_region=rng.randint(1, 3),
        cs_reads=rng.randint(0, 2),
        cs_writes=rng.randint(1, 3),
        cs_work=rng.randint(0, 40),
        outside_work=rng.randint(0, 300),
        region_weights=weights,
        rotate_writes=rng.random() < 0.4,
        single_lock=rng.random() < 0.3,
        nesting=rng.choice([1, 1, 1, 2]),
        fair_delay_hi=rng.randint(10, 120),
        seed=rng.randrange(1 << 30),
    )


def _weighted_choice(rng: random.Random, weights: list[float]) -> int:
    total = sum(weights)
    x = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x <= acc:
            return i
    return len(weights) - 1


def generate(spec: WorkloadSpec) -> Workload:
    """Materialize a spec into a runnable, self-validating workload."""
    space = AddressSpace()
    shared_lock = space.alloc_word() if spec.single_lock else None
    locks = [shared_lock if spec.single_lock else space.alloc_word()
             for _ in range(spec.num_regions)]
    # With nesting > 1, inner sections take a second lock ring.
    inner_locks = [space.alloc_word() for _ in range(spec.num_regions)] \
        if spec.nesting > 1 else None
    data = [space.alloc_lines(spec.data_lines_per_region)
            for _ in range(spec.num_regions)]

    # Pre-draw region choices so expected counts are exact.
    choices: dict[int, list[int]] = {}
    hits = [0] * spec.num_regions
    for tid in range(spec.num_threads):
        rng = random.Random(f"{spec.seed}:{spec.name}:{tid}")
        seq = []
        for _ in range(spec.iters_per_thread):
            if spec.region_weights is None:
                seq.append(rng.randrange(spec.num_regions))
            else:
                seq.append(_weighted_choice(rng, spec.region_weights))
        choices[tid] = seq
        for region in seq:
            hits[region] += 1

    def region_body(region: int, rotate: int, inner: Optional[int]):
        lines = data[region]

        def write(env: ThreadEnv, i: int) -> Generator:
            addr = lines[(rotate + i) % len(lines)]
            value = yield env.read(addr, pc=f"{spec.name}.w{i}.ld")
            yield env.write(addr, value + 1, pc=f"{spec.name}.w{i}.st")

        def rest(env: ThreadEnv, first: int) -> Generator:
            for i in range(first, spec.cs_writes):
                yield from write(env, i)
            for i in range(spec.cs_reads):
                addr = lines[(rotate + spec.cs_writes + i) % len(lines)]
                yield env.read(addr, pc=f"{spec.name}.r{i}")
            if spec.cs_work:
                yield env.compute(spec.cs_work)

        def body(env: ThreadEnv) -> Generator:
            if inner is None:
                yield from rest(env, 0)
                return
            # Nested: the outer section writes once before it takes the
            # inner lock, so the inner lock's SC can be the store that
            # overflows a transaction's write buffer.
            first = min(1, spec.cs_writes)
            for i in range(first):
                yield from write(env, i)
            yield from env.critical(inner, lambda env: rest(env, first),
                                    pc=f"{spec.name}.in")

        return body

    def make_thread(tid: int):
        def thread(env: ThreadEnv) -> Generator:
            for region in choices[tid]:
                rotate = (tid % max(1, spec.data_lines_per_region)
                          if spec.rotate_writes else 0)
                inner = inner_locks[region] if inner_locks else None
                yield from env.critical(
                    locks[region], region_body(region, rotate, inner),
                    pc=f"{spec.name}.{'cs' if inner is None else 'out'}")
                if spec.outside_work:
                    yield env.compute(spec.outside_work)
                yield env.compute(env.fair_delay(lo=1,
                                                 hi=spec.fair_delay_hi))

        return thread

    def validate(store) -> None:
        for region in range(spec.num_regions):
            lines = data[region]
            expected = [0] * len(lines)
            for _ in range(hits[region]):
                for i in range(spec.cs_writes):
                    # Rotation permutes which *line* each write lands on
                    # per thread, so only the total over the region is
                    # invariant when rotation is on.
                    expected[i % len(lines)] += 1
            got = [store.read(addr) for addr in lines]
            if spec.rotate_writes:
                assert sum(got) == sum(expected), (
                    f"region {region}: total {sum(got)} != {sum(expected)}")
            else:
                assert got == expected, (
                    f"region {region}: {got} != {expected}")

    lock_addrs = set(locks) | (set(inner_locks) if inner_locks else set())
    return Workload(name=spec.name,
                    threads=[make_thread(t)
                             for t in range(spec.num_threads)],
                    validate=validate, lock_addrs=lock_addrs,
                    meta={"space": space, "spec": spec})
