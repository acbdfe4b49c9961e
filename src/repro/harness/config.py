"""System configuration.

Defaults mirror the paper's Table 2 (simulated machine parameters) where the
parameter is meaningful in our timing-approximate model, scaled where noted:

* 1 GHz core, 1-cycle L1 data cache access, 64-byte lines;
* 128-KByte 4-way L1 data cache (scaled down by default so workloads with
  scaled iteration counts still exercise capacity effects -- the paper's
  mp3d result depends on locks overflowing the L1);
* Sun Gigaplane-like MOESI split-transaction broadcast: 20-cycle snoop
  latency, 120 outstanding transactions, 20-cycle point-to-point pipelined
  data network, 12-cycle L2, 70-cycle memory;
* 64-entry write buffer (speculative buffering limit for SLE/TLR);
* 128-entry PC-indexed read-modify-write predictor;
* 64-entry silent store-pair predictor, elision (nesting) depth 8.

``SyncScheme`` names the paper's four evaluated configurations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class SyncScheme(enum.Enum):
    """The four configurations of the paper's Section 5."""

    BASE = "BASE"                      # test&test&set, no speculation
    SLE = "BASE+SLE"                   # lock elision, fall back on conflict
    TLR = "BASE+SLE+TLR"               # this paper
    TLR_STRICT_TS = "BASE+SLE+TLR-strict-ts"  # no single-block relaxation
    MCS = "MCS"                        # software queue locks

    @property
    def speculates(self) -> bool:
        return self in (SyncScheme.SLE, SyncScheme.TLR,
                        SyncScheme.TLR_STRICT_TS)

    @property
    def is_tlr(self) -> bool:
        return self in (SyncScheme.TLR, SyncScheme.TLR_STRICT_TS)


@dataclass
class CacheConfig:
    """Geometry and timing of the per-processor L1 data cache."""

    size_bytes: int = 32 * 1024     # paper: 128 KB; scaled (see module doc)
    assoc: int = 4
    line_bytes: int = 64
    hit_latency: int = 1
    victim_entries: int = 16        # paper Section 4's worked example

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError("cache size must be a whole number of sets")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")


@dataclass
class BusConfig:
    """Ordered broadcast address bus (Gigaplane-like)."""

    snoop_latency: int = 20         # request visible to all snoopers
    occupancy: int = 2              # cycles of bus occupancy per transaction
    max_outstanding: int = 120


@dataclass
class DirectoryConfig:
    """Directory-based interconnect (the alternative protocol family the
    paper's Section 3 allows).  Requests travel an unordered network to
    the line's home directory; each home serializes its own requests."""

    request_latency: int = 20       # network hop to the home node
    processing_latency: int = 10    # directory lookup/update
    home_occupancy: int = 2         # per-home throughput bound
    num_homes: int = 16             # line-interleaved home nodes
    max_outstanding: int = 1 << 30  # no global cap (no shared bus)
    # Response/NACK delivery latency (named for Bus compatibility).
    snoop_latency: int = 20


@dataclass
class MemoryConfig:
    """Memory-side latencies (shared L2 + DRAM)."""

    l2_latency: int = 12
    dram_latency: int = 70
    data_latency: int = 20          # point-to-point data network hop
    # Shared-L2 tag capacity in lines (0 = unbounded; the paper's 4 MB
    # L2 = 65536 lines comfortably exceeds scaled working sets).
    l2_capacity_lines: int = 0
    # Optional data-network bandwidth model: minimum cycles between
    # message *deliveries* (0 = unlimited, the paper's pipelined network;
    # >0 serializes deliveries at that rate, exposing data-network
    # contention as a sensitivity knob).
    data_bandwidth_interval: int = 0


@dataclass
class SpeculationConfig:
    """SLE/TLR hardware parameters."""

    write_buffer_entries: int = 64      # unique speculative lines
    elision_depth: int = 8              # nested lock elisions trackable
    store_pair_predictor_entries: int = 64
    rmw_predictor_entries: int = 128
    rmw_predictor_enabled: bool = True
    # SLE without TLR retries speculation this many times before acquiring
    # the lock (the SLE paper restarts once then falls back).
    sle_restart_threshold: int = 1
    # Section 3.1.2: after this many upgrade-induced violations on a line,
    # fetch it exclusive up-front so external requests become deferrable.
    read_escalation_threshold: int = 2
    # Section 3.2: relax strict timestamp order when only a single block is
    # under conflict (deadlock impossible).  Off for TLR-strict-ts.
    single_block_relaxation: bool = True
    # Ownership-retention policy (Section 3): "defer" buffers conflicting
    # requests in the deferred input queue and answers them at commit
    # (needs no protocol support -- the paper's choice); "nack" refuses
    # the request with a negative acknowledgement at the snoop, forcing
    # the requester to retry (needs NACK support in the protocol).
    # Legacy knob: configs that set only retention_policy="nack" are
    # normalized onto contention_policy="nack" below.
    retention_policy: str = "defer"
    # Contention-management policy (repro.policies): how transactional
    # conflicts are resolved.  "timestamp" is the paper's TLR policy
    # (timestamp-ordered deferral, the behavior-preserving default);
    # "nack" is timestamp order retained by NACKs (Section 3's
    # alternative); "requester-wins" is TSX-like best-effort HTM with an
    # abort-count fallback to real lock acquisition; "backoff" is
    # Polka-style exponential backoff with priority accumulation.
    contention_policy: str = "timestamp"
    # Abort-count lock fallback for "requester-wins": after this many
    # failed speculation attempts the lock is acquired for real.  None
    # disables the fallback (exposing the Figure 2 livelock).
    contention_fallback_k: int | None = 4
    # Cycles a NACKed requester waits before re-arbitrating for the bus.
    nack_retry_delay: int = 50
    # Misspeculation redirection penalty (pipeline flush + refetch), and
    # the additional per-consecutive-restart backoff (capped at 15
    # steps): losers wait out the winner instead of re-entering the
    # chain mid-flight.
    misspec_penalty: int = 10
    restart_backoff_step: int = 20
    # How to handle conflicting requests from outside any transaction
    # (Section 2.2 describes both options): "defer" treats them as having
    # the latest timestamp and orders them after the transaction;
    # "abort" triggers a misspeculation (the conservative data-race
    # reaction).
    untimestamped_policy: str = "defer"

    #: Valid contention_policy values; mirrors repro.policies.POLICY_NAMES
    #: (which cannot be imported here without a cycle -- a unit test
    #: keeps the two in sync).
    KNOWN_POLICIES = ("timestamp", "nack", "requester-wins", "backoff")

    def __post_init__(self) -> None:
        if self.retention_policy not in ("defer", "nack"):
            raise ValueError(f"bad retention_policy {self.retention_policy}")
        if self.untimestamped_policy not in ("defer", "abort"):
            raise ValueError(
                f"bad untimestamped_policy {self.untimestamped_policy}")
        if self.contention_policy not in self.KNOWN_POLICIES:
            raise ValueError(
                f"bad contention_policy {self.contention_policy!r}; "
                f"known: {list(self.KNOWN_POLICIES)}")
        if self.contention_fallback_k is not None \
                and self.contention_fallback_k < 1:
            raise ValueError("contention_fallback_k must be >= 1 or None")
        # Legacy spelling: retention_policy="nack" alone selects the
        # NACK-retention policy through the new interface.
        if (self.retention_policy == "nack"
                and self.contention_policy == "timestamp"):
            self.contention_policy = "nack"


@dataclass
class SchedConfig:
    """Preemptive OS-scheduler knobs (see :mod:`repro.sched`).

    The default (``scheduler="none"``) disables the subsystem entirely:
    no engine is constructed, no timer events are scheduled, and runs
    stay bit-identical to the golden fingerprints.  With a scheduler
    selected, N workload threads multiplex over
    ``M = num_cpus // threads_per_cpu`` CPU slots; a preempted thread's
    in-flight elision is aborted (the paper's context-switch stress).
    """

    #: "none" (off), or one of repro.sched.core.KNOWN_SCHEDULERS:
    #: "rr" (round-robin), "mlfq", "cfs".
    scheduler: str = "none"
    #: Timer-interrupt period in cycles (also the base timeslice).
    quantum: int = 2_000
    #: Hardware thread contexts sharing one CPU slot (1 = no
    #: multiplexing; 2 = half the contexts run at any instant, ...).
    threads_per_cpu: int = 1
    #: Allow slots to steal ready threads homed elsewhere.
    migrate: bool = False
    #: Cycles charged before a non-initial switch-in resumes.
    context_switch_penalty: int = 30
    #: Extra cycles when the resume lands on a different slot.
    migration_penalty: int = 50

    #: Mirrors repro.sched.core.KNOWN_SCHEDULERS plus the off switch (a
    #: unit test keeps the two in sync; importing would be a cycle).
    KNOWN_SCHEDULERS = ("none", "rr", "mlfq", "cfs")

    @property
    def enabled(self) -> bool:
        return self.scheduler != "none"

    def __post_init__(self) -> None:
        if self.scheduler not in self.KNOWN_SCHEDULERS:
            raise ValueError(f"bad scheduler {self.scheduler!r}; "
                             f"known: {list(self.KNOWN_SCHEDULERS)}")
        if self.quantum < 1:
            raise ValueError("quantum must be >= 1 cycle")
        if self.threads_per_cpu < 1:
            raise ValueError("threads_per_cpu must be >= 1")
        if self.context_switch_penalty < 0 or self.migration_penalty < 0:
            raise ValueError("switch/migration penalties must be >= 0")


@dataclass
class SystemConfig:
    """Everything needed to build a simulated machine."""

    num_cpus: int = 16
    scheme: SyncScheme = SyncScheme.TLR
    cache: CacheConfig = field(default_factory=CacheConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    # Coherence substrate: "snoop" (Gigaplane-like ordered broadcast,
    # the paper's evaluation machine) or "directory" (unordered network
    # with line-interleaved home directories).
    protocol: str = "snoop"
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    spec: SpeculationConfig = field(default_factory=SpeculationConfig)
    seed: int = 0
    latency_jitter: int = 2
    # Collect conflict/latency telemetry (repro.obs.MachineMetrics) into
    # RunResult.metrics.  Collection is purely observational -- the
    # golden-fingerprint tests pin metrics-on and metrics-off runs
    # bit-identical -- so it defaults on; turn off to shave the hook
    # overhead from very large sweeps.
    metrics: bool = True
    # Schedule-exploration chaos: when > 0, same-cycle events are
    # reordered by a seeded random priority drawn from
    # ``0..schedule_chaos`` at each kernel choice point (see
    # ``Simulator.set_choice_hook``).  0 keeps the strict-FIFO default.
    # Used by ``repro.verify`` to widen interleaving coverage per seed.
    schedule_chaos: int = 0
    max_cycles: int | None = 500_000_000
    # Preemptive scheduling overlay (repro.sched); off by default so
    # existing configs keep one pinned thread per processor.
    sched: SchedConfig = field(default_factory=SchedConfig)

    def with_scheme(self, scheme: SyncScheme) -> "SystemConfig":
        """A copy of this config under a different sync scheme."""
        cfg = replace(self, scheme=scheme,
                      spec=replace(self.spec))
        if scheme is SyncScheme.TLR_STRICT_TS:
            cfg.spec.single_block_relaxation = False
        return cfg

    def with_policy(self, policy: str, fallback_k=...) -> "SystemConfig":
        """A copy of this config under a different contention policy.

        ``retention_policy`` is set consistently (it is the legacy
        spelling of the nack-vs-defer retention choice), so round trips
        through ``with_policy`` never resurrect a stale value.
        """
        spec = replace(self.spec, contention_policy=policy,
                       retention_policy=("nack" if policy == "nack"
                                         else "defer"))
        if fallback_k is not ...:
            spec = replace(spec, contention_fallback_k=fallback_k)
        return replace(self, spec=spec)

    def __post_init__(self) -> None:
        if self.num_cpus < 1:
            raise ValueError("need at least one processor")
        if self.protocol not in ("snoop", "directory"):
            raise ValueError(f"bad protocol {self.protocol}")
        if (self.scheme is SyncScheme.TLR_STRICT_TS
                and self.spec.single_block_relaxation):
            self.spec = replace(self.spec, single_block_relaxation=False)
