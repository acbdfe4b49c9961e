"""White-box corner cases of the coherence controller and bus directory:
writeback races, capacity pressure during speculation, directory state
movement, and deferral bookkeeping."""

from collections import Counter

import pytest

from repro.coherence import controller as controller_module
from repro.coherence.controller import CacheController
from repro.coherence.messages import (MEMORY, BusRequest, Marker, Probe,
                                      ReqKind)
from repro.coherence.states import State
from repro.cpu import isa
from repro.cpu.processor import _PENDING
from repro.harness.config import SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.runner import execute_workload
from repro.harness.spec import RunSpec
from repro.runtime.program import Workload
from repro.sync.locks import FREE, HELD
from repro.tlr.deferral import ChainState
from repro.workloads.common import AddressSpace

from tests.conftest import run_threads, small_config


class TestWritebackRace:
    def test_forward_cancels_inflight_writeback(self):
        """A dirty line being written back when another CPU requests it:
        the owner must cancel the WB and supply the data itself."""
        cfg = small_config(2, SyncScheme.BASE)
        cfg.cache.size_bytes = 1024
        cfg.cache.assoc = 1
        cfg.cache.victim_entries = 1
        stride = cfg.cache.num_sets * isa.WORDS_PER_LINE
        hot = 1024 * isa.WORDS_PER_LINE   # set 0

        def evictor(env):
            yield env.write(hot, 42)
            # Conflict-evict the hot line (same set), launching a WB.
            for i in range(1, 4):
                yield env.write(hot + i * stride, i)
            yield env.compute(1000)

        def reader(env):
            yield env.compute(80)   # land mid-writeback
            value = yield env.read(hot)
            assert value == 42

        machine = run_threads([evictor, reader], cfg)
        assert machine.store.read(hot) == 42

    def test_clean_exclusive_eviction_returns_ownership_to_memory(self):
        cfg = small_config(1, SyncScheme.BASE)
        cfg.cache.size_bytes = 1024
        cfg.cache.assoc = 1
        cfg.cache.victim_entries = 0
        stride = cfg.cache.num_sets * isa.WORDS_PER_LINE
        hot = 1024 * isa.WORDS_PER_LINE

        def thread(env):
            yield env.read(hot)         # E grant
            yield env.read(hot + stride)  # evicts the E line
            yield env.compute(500)

        machine = run_threads([thread], cfg)
        assert machine.bus.directory.owner(isa.line_of(hot)) in (
            MEMORY, 0)  # memory after the WB ordered


class TestSpeculativeCapacity:
    def test_victim_cache_extends_transaction_footprint(self):
        """A transaction larger than one set's associativity survives
        through the victim cache (Section 3.3/4)."""
        cfg = small_config(1, SyncScheme.TLR)
        cfg.cache.size_bytes = 1024
        cfg.cache.assoc = 2
        cfg.cache.victim_entries = 4
        stride = cfg.cache.num_sets * isa.WORDS_PER_LINE
        base = 1024 * isa.WORDS_PER_LINE
        space = AddressSpace()
        lock = space.alloc_word()
        words = [base + i * stride for i in range(5)]  # one set, 5 lines

        def thread(env):
            def body(env):
                for i, word in enumerate(words):
                    yield env.write(word, i + 1, pc=f"v{i}")

            yield from env.critical(lock, body, pc="v")

        machine = run_threads([thread], cfg, space=space)
        assert machine.stats.cpu(0).resource_fallbacks == 0
        assert machine.stats.cpu(0).elisions_committed == 1

    def test_overflowing_victim_cache_forces_fallback(self):
        cfg = small_config(1, SyncScheme.TLR)
        cfg.cache.size_bytes = 1024
        cfg.cache.assoc = 2
        cfg.cache.victim_entries = 2
        stride = cfg.cache.num_sets * isa.WORDS_PER_LINE
        base = 1024 * isa.WORDS_PER_LINE
        space = AddressSpace()
        lock = space.alloc_word()
        words = [base + i * stride for i in range(8)]

        def thread(env):
            def body(env):
                for i, word in enumerate(words):
                    yield env.write(word, i + 1, pc=f"o{i}")

            yield from env.critical(lock, body, pc="o")

        machine = run_threads([thread], cfg, space=space)
        assert machine.stats.cpu(0).resource_fallbacks >= 1
        # Completed correctly anyway, via the real lock.
        assert all(machine.store.read(w) == i + 1
                   for i, w in enumerate(words))


class TestDirectory:
    def test_getx_makes_requester_sole_sharer(self):
        def writer(env):
            yield env.write(64, 1)

        machine = run_threads([writer], small_config(1, SyncScheme.BASE))
        line = isa.line_of(64)
        assert machine.bus.directory.owner(line) == 0
        assert machine.bus.directory.sharers(line) == {0}

    def test_gets_accumulates_sharers(self):
        def reader(env):
            yield env.read(64)
            yield env.compute(2000)

        machine = run_threads([reader, reader, reader],
                              small_config(3, SyncScheme.BASE))
        line = isa.line_of(64)
        assert machine.bus.directory.sharers(line) == {0, 1, 2}

    def test_upgrade_clears_other_sharers(self):
        def reader(env):
            yield env.read(64)
            yield env.compute(2500)

        def upgrader(env):
            yield env.read(64)
            yield env.compute(300)
            yield env.write(64, 9)
            yield env.compute(2000)

        machine = run_threads([reader, upgrader],
                              small_config(2, SyncScheme.BASE))
        line = isa.line_of(64)
        assert machine.bus.directory.owner(line) == 1
        assert machine.bus.directory.sharers(line) == {1}


class TestDeferralBookkeeping:
    def test_commit_drains_everything(self):
        """After any run, no controller retains deferred entries,
        obligations, or pinned lines."""
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()

        def thread(env):
            def body(env):
                value = yield env.read(counter, pc="d.ld")
                yield env.write(counter, value + 1, pc="d.st")

            for _ in range(12):
                yield from env.critical(lock, body, pc="d")
                yield env.compute(env.fair_delay())

        machine = run_threads([thread] * 4,
                              small_config(4, SyncScheme.TLR), space=space)
        for controller in machine.controllers:
            assert len(controller.deferred) == 0
            assert len(controller.mshrs) == 0
            assert not controller.speculating
            assert controller.current_ts is None
            assert not controller.evicting

    def test_stats_accounting_consistency(self):
        space = AddressSpace()
        lock, counter = space.alloc_word(), space.alloc_word()

        def thread(env):
            def body(env):
                value = yield env.read(counter, pc="a.ld")
                yield env.write(counter, value + 1, pc="a.st")

            for _ in range(8):
                yield from env.critical(lock, body, pc="a")
                yield env.compute(env.fair_delay())

        machine = run_threads([thread] * 3,
                              small_config(3, SyncScheme.TLR), space=space)
        stats = machine.stats
        # Elisions: started = committed + (attempts that restarted).
        assert stats.total("elisions_started") == (
            stats.total("elisions_committed") + stats.total("restarts")
            - stats.total("lock_fallbacks") * 0)
        # Every committed section incremented the counter exactly once.
        assert machine.store.read(counter) == 24


class TestHandleProbe:
    """Each branch of the probe receiver, on a hand-built 3-CPU machine:
    CPU 1 receives probes championing timestamp (1, 0), which beats its
    own (5, 1)."""

    LINE = 0x40
    EARLY = (1, 0)

    def receiver(self, scheme=SyncScheme.TLR, ts=(5, 1)):
        machine = Machine(small_config(3, scheme))
        ctl = machine.controllers[1]
        if ts is not None:
            ctl.enter_speculation(ts)
        reasons = []
        ctl.on_misspeculation = \
            lambda reason, line, aborter: reasons.append(reason)
        return machine, ctl, reasons

    def miss(self, ctl, line_addr, in_txn=True):
        request = BusRequest(ReqKind.GETX, line=line_addr,
                             requester=ctl.cpu_id, ts=ctl.current_ts)
        mshr = ctl.mshrs.allocate(request, 0)
        mshr.in_txn = in_txn
        ctl.chains[line_addr] = ChainState()
        return mshr

    def probe(self, ctl):
        ctl.handle_probe(self.LINE, self.EARLY, 2)

    @pytest.mark.parametrize("scheme,ts", [(SyncScheme.TLR, None),
                                           (SyncScheme.SLE, None),
                                           (SyncScheme.SLE, (5, 1))])
    def test_no_lookup_unless_speculating_under_tlr(self, scheme, ts):
        machine, ctl, reasons = self.receiver(scheme, ts)
        ctl.cache.install(self.LINE, State.EXCLUSIVE).accessed = True
        clock = ctl.cache._use_clock
        self.probe(ctl)
        assert ctl.cache._use_clock == clock  # no LRU bump
        assert reasons == []

    def test_speculating_receiver_looks_up_once(self):
        machine, ctl, reasons = self.receiver()
        ctl.cache.install(self.LINE + 1, State.EXCLUSIVE)
        ctl.cache.install(self.LINE, State.EXCLUSIVE)
        clock = ctl.cache._use_clock
        self.probe(ctl)  # line not accessed: no conflict
        assert ctl.cache._use_clock == clock + 1
        assert reasons == []

    def test_chain_without_upstream_queues_and_sends_nothing(self):
        machine, ctl, reasons = self.receiver()
        self.miss(ctl, self.LINE, in_txn=False)
        self.probe(ctl)
        assert ctl.chains[self.LINE].pending_probes == [self.EARLY]
        assert ctl.stats.probes_sent == 0
        assert machine.sim.pending() == 0
        assert reasons == []

    def test_chain_with_upstream_forwards_one_probe(self):
        machine, ctl, reasons = self.receiver()
        self.miss(ctl, self.LINE, in_txn=False)
        ctl.chains[self.LINE].learn_upstream(0)
        self.probe(ctl)
        assert ctl.stats.probes_sent == 1
        assert machine.sim.pending() == 1
        assert reasons == []

    def test_beaten_mid_chain_keeps_deferring_under_relaxation(self):
        machine, ctl, reasons = self.receiver()
        mshr = self.miss(ctl, self.LINE)
        self.probe(ctl)
        assert reasons == []
        assert ctl.speculating and not mshr.pass_through
        # The conflicting clock still fed the loose clock sync.
        assert machine.processors[1].spec.authority._max_conflicting_clock \
            == self.EARLY[0]

    def test_beaten_mid_chain_passes_through_and_restarts(self):
        machine, ctl, reasons = self.receiver()
        mshr = self.miss(ctl, self.LINE)
        self.miss(ctl, self.LINE + 1)  # a second miss: no relaxation
        self.probe(ctl)
        assert reasons == ["probe-lost-pending"]
        assert mshr.pass_through
        assert ctl.stats.probe_losses == 0

    def test_beaten_owner_restarts_and_counts_the_loss(self):
        machine, ctl, reasons = self.receiver()
        ctl.cache.install(self.LINE, State.EXCLUSIVE).accessed = True
        self.probe(ctl)
        assert reasons == ["probe-lost"]
        assert ctl.stats.probe_losses == 1
        assert not ctl.speculating

    def test_owner_with_an_earlier_timestamp_keeps_the_line(self):
        machine, ctl, reasons = self.receiver(ts=(0, 1))
        ctl.cache.install(self.LINE, State.EXCLUSIVE).accessed = True
        self.probe(ctl)
        assert reasons == []
        assert ctl.stats.probe_losses == 0 and ctl.speculating


class TestControlMessagesAsArguments:
    """Probes and markers travel as event arguments: a message object is
    built only for a subscriber of its tap, on a 16-CPU directory
    linked list (thousands of probes)."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Count every Probe and Marker the controller builds."""
        built = Counter()

        class CountingProbe(Probe):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built["probe"] += 1
                super().__init__(*args, **kwargs)

        class CountingMarker(Marker):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built["marker"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(controller_module, "Probe", CountingProbe)
        monkeypatch.setattr(controller_module, "Marker", CountingMarker)
        return built

    def spec(self, metrics=True):
        return RunSpec("linked-list",
                       SystemConfig(num_cpus=16, scheme=SyncScheme.TLR,
                                    seed=0, protocol="directory",
                                    metrics=metrics),
                       {"total_ops": 64})

    def test_bare_run_builds_no_message(self, built):
        spec = self.spec(metrics=False)
        stats = execute_workload(spec.build_workload(), spec.config).stats
        assert stats.total("probes_sent") > 1000
        assert stats.total("markers_sent") > 0
        assert built == Counter()

    def test_probe_subscriber_receives_each_probe_sent(self, built,
                                                       monkeypatch):
        sent = Counter()
        send = CacheController._send_probe

        def recording_send(self, target_id, line_addr, ts, origin):
            if self._controllers.get(target_id) is not None:
                sent[target_id, line_addr, ts, origin] += 1
            send(self, target_id, line_addr, ts, origin)

        monkeypatch.setattr(CacheController, "_send_probe", recording_send)
        spec = self.spec(metrics=False)
        machine = Machine(spec.config)
        entered, left = [], []
        machine.taps.subscribe(
            lambda time, cpu, kind, args, obj: entered.append((cpu, args)),
            "probe")
        machine.taps.subscribe(
            lambda time, cpu, kind, args, obj: left.append(args), "probe",
            post=True)
        stats = machine.run_workload(spec.build_workload())
        probes_sent = stats.total("probes_sent")
        assert probes_sent == sum(sent.values()) > 1000
        assert len(entered) == probes_sent
        assert built == Counter(probe=probes_sent)
        assert Counter((cpu, probe.line, probe.ts, probe.origin)
                       for cpu, (probe,) in entered) == sent
        # The entry and post points share the one object per delivery.
        assert len(left) == probes_sent
        assert all(a is b for (_cpu, (a,)), (b,) in zip(entered, left))

    def test_marker_subscriber_receives_each_marker_sent(self, built,
                                                         monkeypatch):
        sent = Counter()
        send = CacheController._send_marker

        def recording_send(self, request):
            if self._controllers.get(request.requester) is not None:
                sent[request.requester, request.line, self.cpu_id,
                     request.req_id] += 1
            send(self, request)

        monkeypatch.setattr(CacheController, "_send_marker", recording_send)
        spec = self.spec(metrics=False)
        machine = Machine(spec.config)
        received = Counter()

        def on_marker(time, cpu, kind, args, obj):
            (marker,) = args
            received[cpu, marker.line, marker.sender, marker.req_id] += 1

        machine.taps.subscribe(on_marker, "marker")
        stats = machine.run_workload(spec.build_workload())
        assert stats.total("markers_sent") == sum(sent.values()) > 0
        assert received == sent
        assert built == Counter(marker=stats.total("markers_sent"))


class TestJudgedConflict:
    """A request the policy judges looks the line up once: each lookup
    bumps LRU, and the one bump already makes the line most recent.  It
    also scans the MSHR file once, and that scan decides both the
    holder's other-miss flag and the Section 3.2 relaxation."""

    LINE = 0x40
    OTHER = 0x80

    def holder(self, policy, scheme=SyncScheme.TLR):
        machine = Machine(small_config(3, scheme).with_policy(policy))
        ctl = machine.controllers[1]
        ctl.enter_speculation((5, 1))
        ctl.cache.install(self.LINE, State.MODIFIED).accessed = True
        lookups = []
        lookup = ctl.cache.lookup
        ctl.cache.lookup = lambda addr: lookups.append(addr) or lookup(addr)
        request = BusRequest(ReqKind.GETX, line=self.LINE, requester=2,
                             ts=(1, 0))
        return ctl, request, lookups

    # Single-block relaxation lets the holder keep its one line.
    def test_one_lookup_per_forwarded_conflict(self):
        ctl, request, lookups = self.holder("timestamp")
        ctl.handle_forward(request)
        assert ctl.deferred.has_line(self.LINE)
        assert lookups == [self.LINE]

    def test_one_lookup_per_snooped_conflict(self):
        ctl, request, lookups = self.holder("nack")
        assert ctl.would_nack(request)
        assert lookups == [self.LINE]

    # The requester's earlier timestamp wins unless the relaxation holds.
    @pytest.mark.parametrize("state, want", [
        ("empty-queue", (True, False)),
        ("other-miss", (False, True)),
        ("other-deferral", (False, False)),
        ("strict-ts", (False, False)),
    ])
    def test_context_relaxation_and_other_misses(self, state, want):
        scheme = (SyncScheme.TLR_STRICT_TS if state == "strict-ts"
                  else SyncScheme.TLR)
        ctl, request, _ = self.holder("timestamp", scheme)
        if state == "other-miss":
            ctl.mshrs.allocate(BusRequest(ReqKind.GETS, line=self.OTHER,
                                          requester=1, ts=(5, 1)),
                               0).in_txn = True
        elif state == "other-deferral":
            ctl.deferred.push(BusRequest(ReqKind.GETX, line=self.OTHER,
                                         requester=0, ts=(9, 0)), 0)
        seen = []
        resolve = ctl.policy.resolve
        ctl.policy.resolve = lambda ctx: seen.append(ctx) or resolve(ctx)
        ctl.handle_forward(request)
        assert [(ctx.relaxation_ok, ctx.holder_has_miss)
                for ctx in seen] == [want]
        assert ctl.deferred.has_line(self.LINE) is want[0]

    @pytest.mark.parametrize("policy, judge", [
        ("timestamp", CacheController.handle_forward),
        ("nack", CacheController.would_nack),
    ])
    def test_one_mshr_scan_per_judged_conflict(self, policy, judge):
        ctl, request, _ = self.holder(policy)
        scans = []
        entries_view = ctl.mshrs.entries_view
        ctl.mshrs.entries_view = lambda: scans.append(1) or entries_view()
        judge(ctl, request)
        assert len(scans) == 1


class TestFusedHitLegs:
    """An L1 hit looks its line up once.  The load, LL, store, SC and
    swap hit legs do in one lookup what a hit check, ``set_link`` and
    ``mark_accessed`` did with up to three, with the same effects; and
    one LRU bump leaves the line its set's most recent, as more did."""

    LINE = 0x40
    ADDR = LINE * isa.WORDS_PER_LINE
    LOCK = 0x100 * isa.WORDS_PER_LINE

    def core(self, in_txn, state):
        """CPU 0 inside a critical section, elided when ``in_txn``, with
        LINE cached in ``state`` as its set's least recent line."""
        machine = Machine(small_config(2, SyncScheme.TLR))
        proc = machine.processors[0]
        ctl = proc.controller
        line = ctl.cache.install(self.LINE, state)
        ctl.cache.install(self.LINE + ctl.cache.config.num_sets,
                          State.SHARED)
        machine.store.write(self.ADDR, 7)
        if in_txn:
            assert proc.spec.try_elide(
                isa.StoreConditional(self.LOCK, HELD, pc="t.sc"),
                free_value=FREE, cs_depth=0)
        proc.enter_cs()
        lookups = []
        lookup = ctl.cache.lookup
        ctl.cache.lookup = lambda addr: lookups.append(addr) or lookup(addr)
        return machine, proc, ctl, line, lookups

    def assert_most_recent(self, ctl, line):
        cache_set = ctl.cache._sets[ctl.cache.set_index(self.LINE)]
        assert len(cache_set) == 2
        assert max(cache_set.values(), key=lambda l: l.last_use) is line

    def assert_access_bits(self, ctl, line, in_txn, written):
        assert line.accessed is in_txn
        assert line.spec_written is (in_txn and written)
        assert ctl._spec_touched == ({self.LINE: line} if in_txn else {})

    @pytest.mark.parametrize("in_txn", [False, True])
    def test_read_hit(self, in_txn):
        machine, proc, ctl, line, lookups = self.core(in_txn, State.SHARED)
        hits = proc.stats.l1_hits
        assert proc._do_read(isa.Read(self.ADDR, pc="t.load")) == 7
        assert lookups == [self.LINE]
        assert proc.stats.l1_hits == hits + 1
        self.assert_access_bits(ctl, line, in_txn, written=False)
        assert proc._cs_loads == {self.ADDR: "t.load"}
        self.assert_most_recent(ctl, line)

    @pytest.mark.parametrize("in_txn", [False, True])
    def test_read_hit_predicted_exclusive(self, in_txn):
        # A trained RMW load asks for a writable line; inside a
        # transaction it joins the write set.
        machine, proc, ctl, line, lookups = self.core(in_txn,
                                                      State.EXCLUSIVE)
        proc.rmw.train_rmw("t.load")
        hits = proc.stats.l1_hits
        assert proc._do_read(isa.Read(self.ADDR, pc="t.load")) == 7
        assert lookups == [self.LINE]
        assert proc.stats.l1_hits == hits + 1
        self.assert_access_bits(ctl, line, in_txn, written=True)
        assert proc._cs_loads == {self.ADDR: "t.load"}
        self.assert_most_recent(ctl, line)

    def test_read_escalated_by_upgrade_violations(self):
        machine, proc, ctl, line, lookups = self.core(True, State.EXCLUSIVE)
        threshold = machine.config.spec.read_escalation_threshold
        ctl.upgrade_violations[self.LINE] = threshold
        assert proc._do_read(isa.Read(self.ADDR, pc="t.load")) == 7
        assert lookups == [self.LINE]
        self.assert_access_bits(ctl, line, True, written=True)
        # A shared line is no hit for an escalated read.
        machine, proc, ctl, line, lookups = self.core(True, State.SHARED)
        ctl.upgrade_violations[self.LINE] = threshold
        hits = proc.stats.l1_hits
        proc._do_read(isa.Read(self.ADDR, pc="t.load"))
        assert proc.stats.l1_hits == hits
        assert proc.stats.l1_misses == 1

    @pytest.mark.parametrize("in_txn", [False, True])
    def test_ll_hit(self, in_txn):
        machine, proc, ctl, line, lookups = self.core(in_txn, State.SHARED)
        hits = proc.stats.l1_hits
        assert proc._do_ll(isa.LoadLinked(self.ADDR, pc="t.ll")) == 7
        assert lookups == [self.LINE]
        assert proc.stats.l1_hits == hits + 1
        assert ctl.link_valid(self.LINE)
        assert proc._last_ll == (self.ADDR, 7)
        self.assert_access_bits(ctl, line, in_txn, written=False)
        assert proc._cs_loads == {}
        self.assert_most_recent(ctl, line)

    @pytest.mark.parametrize("in_txn", [False, True])
    def test_write_hit(self, in_txn):
        machine, proc, ctl, line, lookups = self.core(in_txn,
                                                      State.EXCLUSIVE)
        proc._cs_loads[self.ADDR] = "t.load"  # loaded earlier in the CS
        absorbs = []
        absorbs_release = proc.spec.absorbs_release
        proc.spec.absorbs_release = (
            lambda op: absorbs.append(op) or absorbs_release(op))
        hits = proc.stats.l1_hits
        op = isa.Write(self.ADDR, 9, pc="t.store")
        assert proc._do_write(op) is None
        assert lookups == [self.LINE]
        assert proc.stats.l1_hits == hits + 1
        # Only an open checkpoint can absorb a release.
        assert absorbs == ([op] if in_txn else [])
        self.assert_access_bits(ctl, line, in_txn, written=True)
        if in_txn:
            assert proc.write_buffer.read(self.ADDR) == 9
            assert machine.store.read(self.ADDR) == 7
        else:
            assert machine.store.read(self.ADDR) == 9
        assert proc._cs_loads == {}
        assert proc.rmw.predict_exclusive("t.load")  # trained as an RMW
        self.assert_most_recent(ctl, line)

    def test_write_hit_overflowing_the_write_buffer_falls_back(self):
        machine, proc, ctl, line, lookups = self.core(True, State.EXCLUSIVE)
        proc.write_buffer.capacity_lines = 0
        reasons = []
        proc.resource_fallback = reasons.append
        assert proc._do_write(isa.Write(self.ADDR, 9, pc="t.store")) \
            is _PENDING
        assert lookups == [self.LINE]
        assert reasons == ["wb-overflow"]
        assert not line.accessed
        assert machine.store.read(self.ADDR) == 7

    @pytest.mark.parametrize("in_txn", [False, True])
    def test_sc_hit(self, in_txn):
        # An SC that is not elided (inside a transaction: a lock past
        # elision_depth) is a store.
        machine, proc, ctl, line, lookups = self.core(in_txn,
                                                      State.EXCLUSIVE)
        proc.spec.try_elide = lambda op, **kwargs: False
        ctl._link = self.LINE
        proc._last_ll = (self.ADDR, 7)
        hits = proc.stats.l1_hits
        op = isa.StoreConditional(self.ADDR, 9, pc="t.sc")
        assert proc._do_sc(op) is True
        assert lookups == [self.LINE]
        assert proc.stats.l1_hits == hits + 1
        self.assert_access_bits(ctl, line, in_txn, written=True)
        if in_txn:
            assert proc.write_buffer.read(self.ADDR) == 9
            assert machine.store.read(self.ADDR) == 7
        else:
            assert machine.store.read(self.ADDR) == 9
        self.assert_most_recent(ctl, line)

    @pytest.mark.parametrize("in_txn", [False, True])
    def test_swap_hit(self, in_txn):
        machine, proc, ctl, line, lookups = self.core(in_txn,
                                                      State.MODIFIED)
        hits = proc.stats.l1_hits
        assert proc._do_swap(isa.AtomicSwap(self.ADDR, 9, pc="t.swap")) == 7
        assert lookups == [self.LINE]
        assert proc.stats.l1_hits == hits + 1
        self.assert_access_bits(ctl, line, in_txn, written=True)
        if in_txn:
            assert proc.write_buffer.read(self.ADDR) == 9
            assert machine.store.read(self.ADDR) == 7
        else:
            assert machine.store.read(self.ADDR) == 9
        self.assert_most_recent(ctl, line)

    @pytest.mark.parametrize("kind", ["sc", "swap", "cas"])
    def test_store_hits_overflowing_the_write_buffer_fall_back(self, kind):
        # Every store shape squashes its op when the buffer is full: the
        # program is not resumed, and the fallback restarts it.
        machine, proc, ctl, line, lookups = self.core(True, State.EXCLUSIVE)
        proc.write_buffer.capacity_lines = 0
        reasons = []
        proc.resource_fallback = reasons.append
        if kind == "sc":
            proc.spec.try_elide = lambda op, **kwargs: False
            ctl._link = self.LINE
            result = proc._do_sc(isa.StoreConditional(self.ADDR, 9))
        elif kind == "swap":
            result = proc._do_swap(isa.AtomicSwap(self.ADDR, 9))
        else:
            result = proc._do_cas(isa.AtomicCas(self.ADDR, expect=7, new=9))
        assert result is _PENDING
        assert lookups == [self.LINE]
        assert reasons == ["wb-overflow"]
        assert not line.accessed
        assert machine.store.read(self.ADDR) == 7


class TestFillsTakeTheirLine:
    """A fill sets the access bits and the link on the line the
    controller installed: the only lookups of its line are the op's at
    issue and the install's."""

    LINE = TestFusedHitLegs.LINE
    ADDR = TestFusedHitLegs.ADDR
    LOCK = TestFusedHitLegs.LOCK

    @pytest.mark.parametrize("op,written", [
        (isa.Read(ADDR, pc="t.load"), False),
        (isa.LoadLinked(ADDR, pc="t.ll"), False),
        (isa.Write(ADDR, 9, pc="t.store"), True),
        (isa.AtomicSwap(ADDR, 9, pc="t.swap"), True),
    ], ids=["read", "ll", "write", "swap"])
    def test_transactional_fill(self, op, written):
        machine = Machine(small_config(2, SyncScheme.TLR))
        proc = machine.processors[0]
        ctl = proc.controller
        assert proc.spec.try_elide(
            isa.StoreConditional(self.LOCK, HELD, pc="t.sc"),
            free_value=FREE, cs_depth=0)
        lookups = []
        lookup = ctl.cache.lookup
        ctl.cache.lookup = lambda addr: lookups.append(addr) or lookup(addr)
        assert proc._execute(op) is _PENDING
        machine.sim.run()
        assert lookups == [self.LINE, self.LINE]  # issue, install
        line = ctl.cache.peek(self.LINE)
        assert line.accessed and line.spec_written is written
        assert ctl._spec_touched == {self.LINE: line}
        assert ctl.link_valid(self.LINE) is isinstance(op, isa.LoadLinked)


class TestOpDispatch:
    def test_unknown_op_type_raises_type_error(self):
        class Fence(isa.Op):
            pass

        class TaggedRead(isa.Read):
            pass

        proc = Machine(small_config(1, SyncScheme.TLR)).processors[0]
        for op in (Fence(), TaggedRead(0x400)):
            with pytest.raises(TypeError, match="unknown operation"):
                proc._execute(op)
        assert proc.stats.ops_completed == 0
