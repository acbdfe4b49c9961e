"""Protocol fuzzing: random workload specs under every scheme.

``random_spec``/``generate`` draw diverse locking signatures (skewed
popularity, rotated write orders, nesting, shared locks) and each
generated workload self-validates against its sequential specification.
This is the broadest serializability net in the suite: any protocol bug
that survives the targeted tests tends to fall out here.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.parallel import run
from repro.workloads.generator import WorkloadSpec, generate, random_spec


def _cfg(scheme, num_cpus, seed=0):
    return SystemConfig(num_cpus=num_cpus, scheme=scheme, seed=seed,
                        max_cycles=100_000_000)


@settings(max_examples=15, deadline=None)
@given(fuzz_seed=st.integers(0, 10_000),
       scheme=st.sampled_from([SyncScheme.TLR, SyncScheme.TLR_STRICT_TS]),
       elision_depth=st.sampled_from([1, 8]),
       write_buffer_entries=st.sampled_from([1, 2, 64]))
def test_fuzzed_workloads_serialize_under_tlr(fuzz_seed, scheme,
                                              elision_depth,
                                              write_buffer_entries):
    # Small speculation resources drive nested locks past elision_depth
    # into the transaction and its stores, SCs and atomics into
    # write-buffer overflow fallbacks.
    spec = random_spec(random.Random(fuzz_seed), num_threads=3)
    config = _cfg(scheme, spec.num_threads)
    config.spec.elision_depth = elision_depth
    config.spec.write_buffer_entries = write_buffer_entries
    result = run(generate(spec), config)
    assert result.cycles > 0


@settings(max_examples=8, deadline=None)
@given(fuzz_seed=st.integers(0, 10_000))
def test_fuzzed_workloads_serialize_under_sle_and_base(fuzz_seed):
    spec = random_spec(random.Random(fuzz_seed), num_threads=3)
    for scheme in (SyncScheme.SLE, SyncScheme.BASE):
        result = run(generate(spec), _cfg(scheme, spec.num_threads))
        assert result.cycles > 0


@settings(max_examples=6, deadline=None)
@given(fuzz_seed=st.integers(0, 10_000))
def test_fuzzed_workloads_serialize_under_mcs(fuzz_seed):
    spec = random_spec(random.Random(fuzz_seed), num_threads=3)
    result = run(generate(spec), _cfg(SyncScheme.MCS, spec.num_threads))
    assert result.cycles > 0


class TestSpecValidation:
    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_threads=0)

    def test_rejects_negative_footprint(self):
        with pytest.raises(ValueError):
            WorkloadSpec(cs_writes=-1)

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_regions=2, region_weights=[1.0])

    def test_rejects_zero_nesting(self):
        with pytest.raises(ValueError):
            WorkloadSpec(nesting=0)


def test_generate_is_deterministic_per_spec():
    spec = WorkloadSpec(seed=42, num_threads=2, iters_per_thread=4)
    a = run(generate(spec), _cfg(SyncScheme.TLR, 2, seed=1))
    b = run(generate(spec), _cfg(SyncScheme.TLR, 2, seed=1))
    assert a.cycles == b.cycles


def test_single_lock_spec_uses_one_lock():
    spec = WorkloadSpec(single_lock=True, num_regions=4)
    workload = generate(spec)
    assert len(workload.lock_addrs) == 1


def test_nested_spec_uses_two_lock_rings():
    spec = WorkloadSpec(nesting=2, num_regions=3)
    workload = generate(spec)
    assert len(workload.lock_addrs) == 6
