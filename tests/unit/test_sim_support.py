"""Unit tests for RNG streams, latency perturbation, and statistics."""

import random

import pytest

from repro.sim.rng import LatencyPerturber, RandomStreams
from repro.sim.stats import CpuStats, SimStats


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("bus")
        b = RandomStreams(7).stream("bus")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_decorrelated(self):
        streams = RandomStreams(7)
        a = streams.stream("bus")
        b = streams.stream("datanet")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("bus")
        b = RandomStreams(2).stream("bus")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_new_consumer_does_not_shift_existing_stream(self):
        one = RandomStreams(3)
        first = one.stream("a").random()
        two = RandomStreams(3)
        two.stream("zzz-new-consumer")
        assert two.stream("a").random() == first


class TestLatencyPerturber:
    def test_jitter_bounded(self):
        streams = RandomStreams(0)
        perturber = LatencyPerturber(streams.stream("lat"), max_jitter=3)
        for _ in range(200):
            value = perturber.perturb(10)
            assert 10 <= value <= 13

    def test_zero_jitter_is_identity(self):
        perturber = LatencyPerturber(RandomStreams(0).stream("x"),
                                     max_jitter=0)
        assert all(perturber.perturb(n) == n for n in (0, 1, 50))

    @pytest.mark.parametrize("max_jitter", range(8))
    def test_stream_matches_randrange(self, max_jitter):
        """perturb draws inline what ``randrange(max_jitter + 1)`` draws,
        value for value, leaving the generator in the same state (a
        zero jitter draws nothing)."""
        rng = random.Random(max_jitter)
        twin = random.Random(max_jitter)
        perturber = LatencyPerturber(rng, max_jitter=max_jitter)
        for i in range(10_000):
            latency = i % 40
            expected = latency + (twin.randrange(max_jitter + 1)
                                  if max_jitter > 0 else 0)
            assert perturber.perturb(latency) == expected
        assert rng.getstate() == twin.getstate()


class TestCpuStats:
    def test_charge_stall_buckets(self):
        stats = CpuStats(cpu_id=0)
        stats.charge_stall(10, is_lock=True)
        stats.charge_stall(5, is_lock=False)
        assert stats.lock_stall_cycles == 10
        assert stats.nonlock_stall_cycles == 5
        assert stats.stall_cycles == 15

    def test_charge_nonpositive_ignored(self):
        stats = CpuStats(cpu_id=0)
        stats.charge_stall(0, is_lock=True)
        stats.charge_stall(-3, is_lock=False)
        assert stats.stall_cycles == 0


class TestSimStats:
    def test_cpu_accessor_grows(self):
        stats = SimStats()
        stats.cpu(3).loads += 1
        assert len(stats.cpus) == 4
        assert stats.cpu(3).loads == 1

    def test_total_sums_across_cpus(self):
        stats = SimStats()
        stats.cpu(0).restarts = 2
        stats.cpu(1).restarts = 3
        assert stats.total("restarts") == 5
        assert stats.restarts == 5

    def test_lock_fraction(self):
        stats = SimStats()
        stats.cpu(0).lock_stall_cycles = 30
        stats.cpu(0).nonlock_stall_cycles = 70
        assert abs(stats.lock_fraction() - 0.3) < 1e-9

    def test_lock_fraction_no_stalls(self):
        assert SimStats().lock_fraction() == 0.0

    def test_summary_keys_stable(self):
        summary = SimStats().summary()
        for key in ("total_cycles", "restarts", "elisions_committed",
                    "requests_deferred", "markers_sent", "probes_sent"):
            assert key in summary
