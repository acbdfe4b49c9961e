"""Property-based tests over richer program shapes: nested locks,
multi-line transactions, and fault injection (deschedule/terminate)."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.cpu import isa
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.runtime.program import Workload
from repro.sync.locks import FREE
from repro.verify import FootprintRecorder, SerializabilityOracle
from repro.workloads.common import AddressSpace


def _machine(scheme, num_cpus, seed=0):
    return Machine(SystemConfig(num_cpus=num_cpus, scheme=scheme,
                                seed=seed, max_cycles=50_000_000))


# ----------------------------------------------------------------------
# Nested-lock programs
# ----------------------------------------------------------------------
# Each op is (outer lock index, counter index).  The inner lock is
# derived from the counter (``counter % 2``) so every access to a given
# counter is guarded by the same inner lock: with a free choice of inner
# lock, two threads can increment the same counter under disjoint lock
# sets, and a lost update is then a legal sequentially-consistent
# outcome rather than a simulator bug (hypothesis found exactly that).
nested_plan = st.lists(
    st.tuples(st.integers(0, 1),      # outer lock index
              st.integers(0, 2)),     # counter index
    min_size=1, max_size=6)


@settings(max_examples=10, deadline=None)
@given(plans=st.lists(nested_plan, min_size=2, max_size=3),
       scheme=st.sampled_from([SyncScheme.TLR, SyncScheme.SLE,
                               SyncScheme.BASE]))
def test_nested_lock_programs_conserve_increments(plans, scheme):
    space = AddressSpace()
    outer_locks = [space.alloc_word() for _ in range(2)]
    inner_locks = [space.alloc_word() for _ in range(2)]
    counters = space.alloc_lines(3)

    def make_thread(tid):
        def thread(env):
            for outer_idx, counter_idx in plans[tid]:
                counter = counters[counter_idx]

                def inner_body(env, counter=counter):
                    value = yield env.read(counter, pc="n.ld")
                    yield env.write(counter, value + 1, pc="n.st")

                def outer_body(env, inner=inner_locks[counter_idx % 2],
                               inner_body=inner_body):
                    yield from env.critical(inner, inner_body, pc="n.in")

                yield from env.critical(outer_locks[outer_idx], outer_body,
                                        pc="n.out")
                yield env.compute(env.fair_delay(lo=1, hi=30))

        return thread

    machine = _machine(scheme, len(plans))
    workload = Workload(name="nested",
                        threads=[make_thread(t) for t in range(len(plans))],
                        meta={"space": space})
    machine.run_workload(workload)

    expected = [0, 0, 0]
    for plan in plans:
        for _, counter_idx in plan:
            expected[counter_idx] += 1
    got = [machine.store.read(c) for c in counters]
    assert got == expected
    for lock in outer_locks + inner_locks:
        assert machine.store.read(lock) == FREE


# ----------------------------------------------------------------------
# Swap and CAS inside transactions
# ----------------------------------------------------------------------
# Each op is (atomic kind, counter index, extra counter index or None).
# The section increments its counter through the atomic -- a swap of the
# read value plus one, or a CAS from it -- and the extra counter with a
# plain store, so a section writes one or two lines: a small write
# buffer overflows on the atomic's store or on the plain one.
atomic_plan = st.lists(
    st.tuples(st.sampled_from(["swap", "cas"]),
              st.integers(0, 2),
              st.one_of(st.none(), st.integers(0, 2))),
    min_size=1, max_size=5)


@settings(max_examples=12, deadline=None)
@given(plans=st.lists(atomic_plan, min_size=2, max_size=3),
       write_buffer=st.sampled_from([1, 2, 64]),
       seed=st.integers(0, 3))
def test_speculative_atomics_conserve_and_serialize(plans, write_buffer,
                                                    seed):
    space = AddressSpace()
    lock = space.alloc_word()
    counters = space.alloc_lines(3)

    def make_thread(tid):
        def thread(env):
            for kind, counter_idx, extra_idx in plans[tid]:
                def body(env, kind=kind, counter=counters[counter_idx],
                         extra_idx=extra_idx):
                    value = yield env.read(counter, pc="a.ld")
                    if kind == "swap":
                        yield isa.AtomicSwap(counter, value + 1, pc="a.swap")
                    else:
                        yield isa.AtomicCas(counter, expect=value,
                                            new=value + 1, pc="a.cas")
                    if extra_idx is not None:
                        extra = counters[extra_idx]
                        value = yield env.read(extra, pc="a.x.ld")
                        yield env.write(extra, value + 1, pc="a.x.st")

                yield from env.critical(lock, body, pc="a")
                yield env.compute(env.fair_delay(lo=1, hi=30))

        return thread

    config = SystemConfig(num_cpus=len(plans), scheme=SyncScheme.TLR,
                          seed=seed, max_cycles=50_000_000)
    config = replace(config, spec=replace(
        config.spec, write_buffer_entries=write_buffer))
    machine = Machine(config)
    recorder = FootprintRecorder().attach(machine)
    workload = Workload(name="atomics",
                        threads=[make_thread(t) for t in range(len(plans))],
                        meta={"space": space})
    machine.run_workload(workload)

    expected = [0, 0, 0]
    for plan in plans:
        for _, counter_idx, extra_idx in plan:
            expected[counter_idx] += 1
            if extra_idx is not None:
                expected[extra_idx] += 1
    assert [machine.store.read(c) for c in counters] == expected
    assert machine.store.read(lock) == FREE
    report = SerializabilityOracle(recorder).check(machine.store.snapshot())
    assert report.ok, [str(v) for v in report.violations]
    if write_buffer == 64:
        # Nothing overflows: every section's atomic ran speculatively
        # and committed.
        committed = sum(cpu.elisions_committed
                        for cpu in machine.stats.cpus)
        assert committed == sum(len(plan) for plan in plans)


# ----------------------------------------------------------------------
# Fault injection: deschedule/reschedule at arbitrary instants
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(deschedule_at=st.integers(10, 4000),
       sleep=st.integers(100, 8000),
       victim=st.integers(0, 2),
       seed=st.integers(0, 3))
def test_deschedule_anywhere_preserves_serializability(deschedule_at,
                                                       sleep, victim, seed):
    """Whatever instant the OS picks to deschedule a TLR thread, no
    increment is lost or duplicated once it is rescheduled."""
    space = AddressSpace()
    lock, counter = space.alloc_word(), space.alloc_word()
    iters = 6
    num = 3

    def incrementer(env):
        def body(env):
            value = yield env.read(counter, pc="f.ld")
            yield env.compute(25)
            yield env.write(counter, value + 1, pc="f.st")

        for _ in range(iters):
            yield from env.critical(lock, body, pc="f")
            yield env.compute(env.fair_delay(lo=1, hi=40))

    machine = _machine(SyncScheme.TLR, num, seed)
    workload = Workload(name="fault", threads=[incrementer] * num,
                        meta={"space": space})
    proc = machine.processors[victim]
    machine.sim.schedule(deschedule_at, proc.deschedule)
    machine.sim.schedule(deschedule_at + sleep, proc.reschedule)
    machine.run_workload(workload, validate=False)
    assert machine.store.read(counter) == num * iters
    assert machine.store.read(lock) == FREE


@settings(max_examples=10, deadline=None)
@given(kill_at=st.integers(10, 3000), seed=st.integers(0, 3))
def test_terminate_anywhere_never_corrupts_survivors(kill_at, seed):
    """Killing a TLR thread at any instant leaves the other threads'
    increments exact and the lock free."""
    space = AddressSpace()
    lock, counter = space.alloc_word(), space.alloc_word()
    survivor_iters = 8

    def victim(env):
        def body(env):
            value = yield env.read(counter, pc="v.ld")
            yield env.compute(40)
            yield env.write(counter, value + 1, pc="v.st")

        while True:
            yield from env.critical(lock, body, pc="v")
            yield env.compute(env.fair_delay(lo=1, hi=40))

    def survivor(env):
        def body(env):
            value = yield env.read(counter, pc="s.ld")
            yield env.write(counter, value + 1, pc="s.st")

        for _ in range(survivor_iters):
            yield from env.critical(lock, body, pc="s")
            yield env.compute(env.fair_delay(lo=1, hi=40))

    machine = _machine(SyncScheme.TLR, 2, seed)
    workload = Workload(name="kill", threads=[victim, survivor],
                        meta={"space": space})
    machine.sim.schedule(kill_at, machine.processors[0].terminate)
    machine.run_workload(workload, validate=False)
    final = machine.store.read(counter)
    # The victim completed some whole number of sections before dying;
    # the survivor completed all of its own.  Nothing was half-applied.
    assert final >= survivor_iters
    assert machine.store.read(lock) == FREE
    assert machine.processors[1].done
