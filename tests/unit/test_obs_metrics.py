"""Tests for the observability subsystem (``repro.obs``): the metric
primitives, the machine collector, and the guarantee that attaching
telemetry never changes what a run computes."""

from collections import Counter

import pytest

from repro.harness.config import SyncScheme
from repro.harness.machine import Machine
from repro.harness.runner import (RunResult, execute_workload,
                                  result_fingerprint)
from repro.obs import (DEPTH_BUCKETS, Histogram, MachineMetrics,
                       MetricsRegistry, openmetrics_from_dict,
                       summarize_metrics)
from repro.workloads.microbench import linked_list, single_counter

from tests.conftest import small_config
from tests.integration.test_observer_pins import CASES


class TestPrimitives:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(3)
        assert registry.counter("hits") is counter and counter.value == 4
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2 and gauge.max == 5

    def test_histogram_buckets_are_inclusive_upper_bounds(self):
        hist = Histogram("h", buckets=(1, 2, 4))
        for value in (0, 1, 2, 3, 4, 99):
            hist.observe(value)
        assert hist.counts == [2, 1, 2]  # {0,1}, {2}, {3,4}
        assert hist.overflow == 1        # 99
        assert hist.count == 6 and hist.min == 0 and hist.max == 99
        assert hist.mean == pytest.approx(109 / 6)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(4, 2, 1))
        with pytest.raises(ValueError):
            Histogram("dup", buckets=(1, 1, 2))

    def test_histogram_redeclare_with_other_buckets_is_an_error(self):
        registry = MetricsRegistry()
        registry.histogram("depth", buckets=DEPTH_BUCKETS)
        registry.histogram("depth", buckets=DEPTH_BUCKETS)  # idempotent
        with pytest.raises(ValueError):
            registry.histogram("depth", buckets=(1, 2, 3))

    def test_to_dict_and_summarize(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(10, 20)).observe(15)
        exported = registry.to_dict()
        assert exported["counters"] == {"a": 2}
        assert exported["gauges"] == {"g": {"value": 7, "max": 7}}
        assert exported["histograms"]["h"]["counts"] == [0, 1]
        flat = summarize_metrics(exported)
        assert flat["a"] == 2
        assert flat["g.last"] == 7 and flat["g.max"] == 7
        assert flat["h.count"] == 1 and flat["h.mean"] == 15
        assert summarize_metrics(None) == {}


class TestMachineCollector:
    def _collected(self, workload):
        machine = Machine(small_config(4, SyncScheme.TLR))
        collector = MachineMetrics().attach(machine)
        machine.run_workload(workload)
        return machine, collector.finalize(machine)

    def test_deferral_and_retry_histograms_populate(self):
        machine, metrics = self._collected(single_counter(4, 128))
        hist = metrics["histograms"]
        depth = hist["defer.queue_depth"]
        assert depth["count"] == machine.stats.total("requests_deferred")
        assert depth["count"] > 0 and depth["max"] >= 1
        retries = hist["nack.retries_per_request"]
        assert retries["count"] > 0  # one sample per completed miss
        assert hist["defer.latency"]["count"] == depth["count"]
        assert hist["miss.latency"]["count"] > 0

    def test_counters_match_machine_stats(self):
        machine, metrics = self._collected(linked_list(4, 128))
        counters = metrics["counters"]
        stats = machine.stats
        assert counters["txn.commits"] == stats.total("elisions_committed")
        assert counters["defer.count"] == stats.total("requests_deferred")
        assert counters["defer.serviced"] == counters["defer.count"]
        assert counters["restart.count"] == stats.restarts
        reason_counts = {key[len("restart.reason."):]: value
                         for key, value in counters.items()
                         if key.startswith("restart.reason.")}
        assert reason_counts == stats.reason_totals()
        assert sum(reason_counts.values()) == stats.restarts

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stats_counters_equal_emit_counts(self, case):
        """The counters read from CpuStats at finalize equal the firings
        of the points they used to be counted at, so a stats increment
        that drifts off its emit site fails here."""
        points = {"nack.received": "nacked", "defer.count": "defer",
                  "probe.sent": "probe", "marker.sent": "marker",
                  "restart.count": "restart"}
        spec = CASES[case]
        machine = Machine(spec.config)
        collector = MachineMetrics().attach(machine)
        fired = Counter()

        def count(time, cpu, kind, args, obj):
            fired[kind] += 1

        machine.taps.subscribe(count, "nacked", "probe", "marker",
                               "restart")
        machine.taps.subscribe(count, "defer", post=True)
        machine.run_workload(spec.build_workload())
        counters = collector.finalize(machine)["counters"]
        assert {name: counters[name] for name in points} == {
            name: fired[kind] for name, kind in points.items()}

    def test_policy_telemetry_exported_as_gauges(self):
        _, metrics = self._collected(single_counter(4, 128))
        gauges = metrics["gauges"]
        assert "policy.retries" in gauges
        assert "policy.relaxation_deferrals" in gauges
        assert metrics["meta"]["policy"] == "timestamp"
        assert "TLR" in metrics["meta"]["scheme"]


class TestObservationPurity:
    """Telemetry describes a run; it must never change one."""

    def test_metrics_on_off_fingerprints_identical(self):
        cfg_on = small_config(4, SyncScheme.TLR)
        cfg_off = small_config(4, SyncScheme.TLR)
        cfg_off.metrics = False
        on = execute_workload(single_counter(4, 96), cfg_on)
        off = execute_workload(single_counter(4, 96), cfg_off)
        assert result_fingerprint(on) == result_fingerprint(off)
        assert on.metrics is not None
        assert off.metrics is None

    def test_metrics_excluded_from_fingerprint(self):
        result = execute_workload(single_counter(2, 64),
                                   small_config(2, SyncScheme.TLR))
        fingerprint = result_fingerprint(result)
        result.metrics = {"counters": {"tampered": 1}}
        assert result_fingerprint(result) == fingerprint

    def test_run_result_round_trips_metrics(self):
        result = execute_workload(single_counter(2, 64),
                                   small_config(2, SyncScheme.TLR))
        clone = RunResult.from_dict(result.to_dict())
        assert clone.metrics == result.metrics
        assert result_fingerprint(clone) == result_fingerprint(result)

    def test_deterministic_across_identical_runs(self):
        first = execute_workload(single_counter(4, 96),
                                  small_config(4, SyncScheme.TLR))
        second = execute_workload(single_counter(4, 96),
                                   small_config(4, SyncScheme.TLR))
        assert first.metrics == second.metrics


class TestOpenMetrics:
    """OpenMetrics text exposition of a metrics export."""

    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("txn.commits").inc(4)
        registry.gauge("defer.depth").set(3)
        registry.gauge("defer.depth").set(1)
        hist = registry.histogram("defer.latency", buckets=(1, 2, 4))
        for value in (1, 2, 3, 99):
            hist.observe(value)
        return registry

    def test_counter_rendered_with_total_suffix(self):
        text = self._registry().to_openmetrics()
        assert "# TYPE txn_commits counter" in text
        assert "txn_commits_total 4" in text

    def test_gauge_rendered_with_last_and_max(self):
        text = self._registry().to_openmetrics()
        assert "defer_depth 1" in text.splitlines()
        assert "defer_depth_max 3" in text.splitlines()

    def test_histogram_buckets_are_cumulative(self):
        text = self._registry().to_openmetrics()
        assert 'defer_latency_bucket{le="1"} 1' in text
        assert 'defer_latency_bucket{le="2"} 2' in text
        assert 'defer_latency_bucket{le="4"} 3' in text
        # +Inf bucket equals the total count (overflow included).
        assert 'defer_latency_bucket{le="+Inf"} 4' in text
        assert "defer_latency_sum 105" in text
        assert "defer_latency_count 4" in text

    def test_ends_with_eof_line(self):
        text = self._registry().to_openmetrics()
        assert text.endswith("# EOF\n")
        assert openmetrics_from_dict(None) == "# EOF\n"
        assert openmetrics_from_dict({}) == "# EOF\n"

    def test_meta_section_becomes_target_info(self):
        payload = self._registry().to_dict()
        payload["meta"] = {"scheme": "BASE+SLE+TLR", "policy": "timestamp"}
        text = openmetrics_from_dict(payload)
        assert ('target_info{policy="timestamp",scheme="BASE+SLE+TLR"} 1'
                in text)

    def test_names_are_legalized(self):
        registry = MetricsRegistry()
        registry.counter("restart.reason.lock-acquired").inc()
        text = registry.to_openmetrics()
        assert "restart_reason_lock_acquired_total 1" in text

    def test_finalized_machine_payload_renders(self):
        machine = Machine(small_config(4, SyncScheme.TLR))
        collector = MachineMetrics().attach(machine)
        machine.run_workload(single_counter(4, 128))
        text = openmetrics_from_dict(collector.finalize(machine))
        assert "target_info{" in text
        assert "txn_commits_total" in text
        assert 'defer_queue_depth_bucket{le="+Inf"}' in text
        assert text.endswith("# EOF\n")
