"""Statistics collection.

The paper reports wall-clock (parallel) execution cycles, a breakdown of
stall cycles into *lock-variable* and *non-lock* contributions (Figure 11),
and various event counts we use for analysis (restarts, elisions,
deferrals, bus transactions).  Attribution follows the paper's convention:
the instruction (here: architectural operation) that stalls completion is
charged the stall, classified by whether it targets a lock variable.

``SimStats`` is system-wide; each processor owns a ``CpuStats``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields


@dataclass
class CpuStats:
    """Per-processor counters."""

    cpu_id: int
    ops_completed: int = 0
    loads: int = 0
    stores: int = 0
    compute_cycles: int = 0
    # Stall attribution (the Figure 11 breakdown).
    lock_stall_cycles: int = 0
    nonlock_stall_cycles: int = 0
    spin_cycles: int = 0          # cycles parked in a spin-wait (lock stall)
    # Cache behaviour.
    l1_hits: int = 0
    l1_misses: int = 0
    upgrades: int = 0
    writebacks: int = 0
    victim_hits: int = 0
    # Speculation (SLE/TLR).
    elisions_started: int = 0
    elisions_committed: int = 0
    misspeculations: int = 0
    restarts: int = 0
    lock_fallbacks: int = 0       # speculation abandoned, lock acquired
    resource_fallbacks: int = 0   # fallback caused by buffer/cache limits
    # TLR specifics.
    requests_deferred: int = 0
    markers_sent: int = 0
    probes_sent: int = 0
    probe_losses: int = 0
    timestamp_updates: int = 0
    nacks_sent: int = 0
    nacks_received: int = 0
    # Critical sections.
    critical_sections: int = 0
    finish_time: int = 0
    # Why this processor's speculations died (reason -> count).
    restart_reasons: Counter = field(default_factory=Counter)

    @property
    def stall_cycles(self) -> int:
        """Total attributed stall cycles."""
        return self.lock_stall_cycles + self.nonlock_stall_cycles

    def charge_stall(self, cycles: int, is_lock: bool) -> None:
        """Attribute ``cycles`` of stall to the lock or non-lock bucket."""
        if cycles <= 0:
            return
        if is_lock:
            self.lock_stall_cycles += cycles
        else:
            self.nonlock_stall_cycles += cycles

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (counters as plain dicts)."""
        data = {name: getattr(self, name) for name in _CPU_FIELDS}
        data["restart_reasons"] = dict(self.restart_reasons)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CpuStats":
        data = dict(data)
        data["restart_reasons"] = Counter(data.get("restart_reasons") or {})
        return cls(**data)


#: ``CpuStats`` field names in declaration order: every counter is a
#: scalar except ``restart_reasons``, so ``to_dict`` copies by name
#: instead of recursively deep-copying the record.
_CPU_FIELDS = tuple(f.name for f in fields(CpuStats))


@dataclass
class SimStats:
    """System-wide statistics for one simulation run."""

    cpus: list[CpuStats] = field(default_factory=list)
    bus_transactions: int = 0
    bus_busy_cycles: int = 0
    data_messages: int = 0
    memory_reads: int = 0
    total_cycles: int = 0
    extra: Counter = field(default_factory=Counter)

    def cpu(self, cpu_id: int) -> CpuStats:
        while len(self.cpus) <= cpu_id:
            self.cpus.append(CpuStats(cpu_id=len(self.cpus)))
        return self.cpus[cpu_id]

    # ------------------------------------------------------------------
    # Aggregates used by the harness and the report generators
    # ------------------------------------------------------------------
    def total(self, field_name: str) -> int:
        """Sum a ``CpuStats`` field across processors."""
        return sum(getattr(c, field_name) for c in self.cpus)

    @property
    def lock_stall_cycles(self) -> int:
        return self.total("lock_stall_cycles")

    @property
    def nonlock_stall_cycles(self) -> int:
        return self.total("nonlock_stall_cycles")

    @property
    def restarts(self) -> int:
        return self.total("restarts")

    @property
    def elisions_committed(self) -> int:
        return self.total("elisions_committed")

    def reason_totals(self) -> dict[str, int]:
        """Restart-reason breakdown aggregated across processors (the
        per-policy restart attribution the obs layer exports)."""
        totals: Counter = Counter()
        for cpu in self.cpus:
            totals.update(cpu.restart_reasons)
        return dict(sorted(totals.items()))

    def lock_fraction(self) -> float:
        """Fraction of all attributed stall cycles charged to locks."""
        stall = self.lock_stall_cycles + self.nonlock_stall_cycles
        if stall == 0:
            return 0.0
        return self.lock_stall_cycles / stall

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of every counter (the stable
        on-disk format used by the result cache and ``--json``)."""
        return {
            "cpus": [c.to_dict() for c in self.cpus],
            "bus_transactions": self.bus_transactions,
            "bus_busy_cycles": self.bus_busy_cycles,
            "data_messages": self.data_messages,
            "memory_reads": self.memory_reads,
            "total_cycles": self.total_cycles,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        stats = cls(cpus=[CpuStats.from_dict(c) for c in data.get("cpus", [])],
                    bus_transactions=data.get("bus_transactions", 0),
                    bus_busy_cycles=data.get("bus_busy_cycles", 0),
                    data_messages=data.get("data_messages", 0),
                    memory_reads=data.get("memory_reads", 0),
                    total_cycles=data.get("total_cycles", 0),
                    extra=Counter(data.get("extra") or {}))
        return stats

    def summary(self) -> dict:
        """A flat dict convenient for tables and JSON artifacts."""
        return {
            "total_cycles": self.total_cycles,
            "bus_transactions": self.bus_transactions,
            "l1_misses": self.total("l1_misses"),
            "lock_stall_cycles": self.lock_stall_cycles,
            "nonlock_stall_cycles": self.nonlock_stall_cycles,
            "restarts": self.restarts,
            "misspeculations": self.total("misspeculations"),
            "elisions_committed": self.elisions_committed,
            "lock_fallbacks": self.total("lock_fallbacks"),
            "resource_fallbacks": self.total("resource_fallbacks"),
            "requests_deferred": self.total("requests_deferred"),
            "markers_sent": self.total("markers_sent"),
            "probes_sent": self.total("probes_sent"),
            "nacks_sent": self.total("nacks_sent"),
            "critical_sections": self.total("critical_sections"),
        }
