"""Integration tests for the contention-policy lab.

Four angles:

* **Behavior preservation.**  The policy refactor moved the paper's
  conflict decision out of the controller and behind an interface; the
  golden fingerprints below were captured on the pre-refactor tree, so
  the default policy (and the NACK policy) must reproduce them
  bit-for-bit.  Further goldens pin the
  conflict paths the timestamp policy never takes: plain SLE,
  requester-wins, backoff and the ABORT_REQUESTER verdict.
* **Liveness contrast.**  Requester-wins without its lock fallback is
  the paper's Figure 2 livelock; the verify layer's starvation watchdog
  must flag it, while every bounded policy finishes the same workload.
* **Correctness under every policy.**  A seed-fanned verify pass (the
  serializability oracle + policy-aware invariant monitors) over two
  workloads must hold for all four policies -- swapping the conflict
  rule may cost cycles, never serializability.
* **Corners.**  The NACK policy's chained-request fallback (a refusal
  is impossible past the order point, so retention degrades to
  deferral) and the ABORT_REQUESTER verdict, served and refused.
"""

import pytest

from repro.harness.config import SpeculationConfig, SyncScheme, SystemConfig
from repro.harness.machine import Machine
from repro.harness.runner import (RunResult, execute_workload,
                                  result_fingerprint)
from repro.harness.spec import RunSpec
from repro.policies import POLICY_NAMES, PolicyDecision
from repro.policies.nack import NackRetention
from repro.policies.timestamp import TimestampDeferral
from repro.verify import verify_run
from repro.verify.monitors import InvariantViolation, MonitorSuite
from repro.workloads.microbench import linked_list, single_counter

# Captured on the pre-refactor tree (inline controller decisions),
# num_cpus=4, scheme=TLR, ops=96, seeds 0..2.
GOLDEN_DEFAULT = {
    ("single-counter", 0):
        "82410a9c42a59bb8534b24107080cd6a07e383a0328d03aa899614b6aadf6888",
    ("single-counter", 1):
        "8c439d071317a1cf21f980e734bc28cd96fcdd7e55d8959e0a77a36ce2c27afc",
    ("single-counter", 2):
        "6e23d069e8adcea0c6d1f05e83f4327fdfc310fdf4d73c43c34be04fb385c06f",
    ("linked-list", 0):
        "b0198d2bb44e712dcf0ce5dea9713ec47fae62c58822eb60e386822eb61bced0",
    ("linked-list", 1):
        "205a17cc5d17c4c91a099eb015adb61d51eb9505b0f7b95e86ba72910843922e",
    ("linked-list", 2):
        "7b3e123ff421ed6ef71453c25c9247cd3f9bdd29cde839361986bbdc886fc519",
}
# Same capture with NACK retention, then spelled
# SpeculationConfig(retention_policy="nack"), a knob since retired;
# contention_policy="nack" selects the same policy.
GOLDEN_LEGACY_NACK = {
    0: "a4959cd5c45404b603536e00ab0e3be96f6567fd9bc06d11a69772b5e739493b",
    1: "14092355cc258cd315a6169e646f109f0d2a0d054f0a4fbc62514c282bafc250",
    2: "5fa15cdd96bd0f9c8aa3ff6b611be483c831e080e7cfcb544bfe4d7555172d10",
}

# Captured before the controller's conflict sequence was folded into
# one helper: the paths no timestamp-policy golden reaches.  Plain SLE
# (its lose-on-conflict branches at the forward and behind an in-flight
# miss), TLR under requester-wins (every conflict kills the holder) and
# TLR under backoff (priority NACKs).  num_cpus=4, ops=96, seeds 0..2.
GOLDEN_SLE = {
    ("single-counter", 0):
        "9c4f401287f4d594817e40676fb29e946b5022459cf6bb8de533d244d128899f",
    ("single-counter", 1):
        "c4cc3c65a8f4cd9943314f4f3fd9d2687e7ad505c4f57cbec75b3c897c82429d",
    ("single-counter", 2):
        "c14fd39f29e414ee177d39869ad3916ef4091d2b5711d5b9c75942efd0e1a978",
    ("linked-list", 0):
        "20d0a313bc67bb61555661812b9874b4c8ab959a5c1aa6dd3ba491c5f5a80d2c",
    ("linked-list", 1):
        "4a0517dfec1e2b5cba318d6371aa3aa49c3511547b0df4b482642a60387f21fb",
    ("linked-list", 2):
        "90fae2ae3d4da9d7a71d49654ebb70f5f7e13eb79ff3d8a95e35628e3a6eca23",
}
GOLDEN_REQUESTER_WINS = {
    ("single-counter", 0):
        "483f36570b2a291a8aa86aa6ba758dccb7e7d725db48d8df4e9fb4ed1a553968",
    ("single-counter", 1):
        "ba0788c2a8dd7b51b2450f4c6332e8707b049bb8551ac752e3d6980df571b405",
    ("single-counter", 2):
        "7857ac0cf2f6512966775bbf1f63467c06a87740018825c815410a228f92e654",
    ("linked-list", 0):
        "195f2e2d1d02843078dc8040b1bd6310a55b15157e7c1f8cd1987132eb9b352e",
    ("linked-list", 1):
        "c99fe9f73b8c1512ab5d828a472b063dc97d9a2aa8878ac672cdea092af67faf",
    ("linked-list", 2):
        "59d2f0a13f61b07331803a9ddaf70b8e9c162fa5a482e0a7f2686bfc893deb03",
}
GOLDEN_BACKOFF = {
    ("single-counter", 0):
        "4ce1f4249a1c0717fcf9a1c5e0caa6af95b952d538c1ab36d47237911b732bd5",
    ("single-counter", 1):
        "e6ce87d298bf00527a72874552612ebfb376afdf45e248b99acc0161b2688179",
    ("single-counter", 2):
        "8d5f31ba0dd4b43e6b53a7decd52c003ca8300f232d1c706c9f712fa79cf37fd",
    ("linked-list", 0):
        "e33b4f6070010268e5b384bb9f3ec660bdcac02a49b0312edce601f7fb133f55",
    ("linked-list", 1):
        "b576ea37f0d024b97190ad998565db5547257f7fc6e9c016735f97878e0994b5",
    ("linked-list", 2):
        "0412ab4ebe0fb5d983fce1ff5fc11b65bc8ed1104cee60da91fb6b578b2bafc1",
}

BUILDERS = {"single-counter": single_counter, "linked-list": linked_list}


# ----------------------------------------------------------------------
# Behavior preservation: pre-refactor golden fingerprints
# ----------------------------------------------------------------------
def test_default_policy_matches_pre_refactor_goldens():
    for (name, seed), want in GOLDEN_DEFAULT.items():
        cfg = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR, seed=seed)
        result = execute_workload(BUILDERS[name](4, 96), cfg)
        assert result_fingerprint(result) == want, (
            f"{name}/seed{seed}: the timestamp policy diverged from the "
            f"pre-refactor controller")


def test_nack_policy_matches_pre_refactor_goldens():
    for seed, want in GOLDEN_LEGACY_NACK.items():
        cfg = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR, seed=seed,
                           spec=SpeculationConfig(contention_policy="nack"))
        result = execute_workload(single_counter(4, 96), cfg)
        assert result_fingerprint(result) == want, (
            f"seed{seed}: contention_policy='nack' diverged")


@pytest.mark.parametrize("name", ("SLE", "requester-wins", "backoff"))
def test_conflict_paths_match_goldens(name):
    goldens = {"SLE": GOLDEN_SLE, "requester-wins": GOLDEN_REQUESTER_WINS,
               "backoff": GOLDEN_BACKOFF}[name]
    for (workload, seed), want in goldens.items():
        if name == "SLE":
            cfg = SystemConfig(num_cpus=4, scheme=SyncScheme.SLE, seed=seed)
        else:
            cfg = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR,
                               seed=seed).with_policy(name)
        result = execute_workload(BUILDERS[workload](4, 96), cfg)
        assert result_fingerprint(result) == want, (
            f"{name}: {workload}/seed{seed} diverged")


# ----------------------------------------------------------------------
# Liveness: Figure 2 with the guard rails removed
# ----------------------------------------------------------------------
def _livelock_config():
    cfg = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR).with_policy(
        "requester-wins", fallback_k=None)
    cfg.max_cycles = 3_000_000
    return cfg


def test_requester_wins_without_fallback_livelocks():
    """The starvation watchdog must flag the livelock long before the
    cycle budget would -- and name the policy."""
    machine = Machine(_livelock_config())
    MonitorSuite(machine, watchdog_period=2_000,
                 watchdog_patience=5).attach()
    with pytest.raises(InvariantViolation, match="starvation") as exc:
        machine.run_workload(
            single_counter(4, total_increments=64, think_cycles=200))
    assert "requester-wins" in str(exc.value)
    assert machine.sim.now < 100_000  # caught early, not at the budget
    stats = machine.stats.summary()
    assert stats["restarts"] > 100  # the abort storm was real


def test_bounded_policies_finish_the_livelock_workload():
    for policy in POLICY_NAMES:
        cfg = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR).with_policy(
            policy)  # requester-wins keeps its default lock fallback
        result = execute_workload(
            single_counter(4, total_increments=64, think_cycles=200), cfg)
        assert result.stats is not None, policy
    # The fallback is what saved requester-wins: the same workload with
    # fallback_k=4 completes with real lock acquisitions.
    result = execute_workload(
        single_counter(4, total_increments=64, think_cycles=200),
        SystemConfig(num_cpus=4, scheme=SyncScheme.TLR).with_policy(
            "requester-wins", fallback_k=4))
    assert result.stats.summary()["lock_fallbacks"] > 0


# ----------------------------------------------------------------------
# Correctness: every policy, seed-fanned oracle + monitors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("workload", ("single-counter", "linked-list"))
def test_policy_serializability_fanout(policy, workload):
    base = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR).with_policy(
        policy)
    size_key = ("total_increments" if workload == "single-counter"
                else "total_ops")
    for seed in range(25):
        spec = RunSpec(workload=workload,
                       config=SystemConfig(
                           num_cpus=4, scheme=SyncScheme.TLR,
                           seed=seed, spec=base.spec),
                       workload_args={size_key: 96})
        result = verify_run(spec)
        assert result.ok, (f"{policy}/{workload}/seed{seed}: "
                           f"{result.violations or result.error}")
        assert result.num_txns > 0


# ----------------------------------------------------------------------
# Corners
# ----------------------------------------------------------------------
def test_nack_chained_request_corner():
    """At 4 CPUs the NACK policy hits both retention mechanisms in one
    run: snoop-time refusals AND order-point deferrals (requests that
    chain behind the holder's in-flight fill, where a NACK is no longer
    possible).  Both must coexist with a verified execution."""
    spec = RunSpec(workload="single-counter",
                   config=SystemConfig(num_cpus=4, scheme=SyncScheme.TLR)
                   .with_policy("nack"),
                   workload_args={"total_increments": 96})
    result = verify_run(spec)
    assert result.ok, result.violations or result.error
    assert result.summary["nacks_sent"] > 0
    assert result.summary["requests_deferred"] > 0


# Fingerprints of the two ABORT_REQUESTER corners below (single
# counter, 4 CPUs, 96 increments, seed 0), captured with the goldens
# above.
GOLDEN_ABORT_REQUESTER = {
    "holder-always-wins":
        "4d8ed792cb3706a922af7f31e4e548a76e758cb235766b9478291ed67e0c3b0a",
    "refuse-and-kill":
        "e39ff15b128ae7afd8134c651ead19ad89cb2b8245f2a5f5b8d436ac84a4ab60",
}


def _run_with_policy(policy_cls) -> RunResult:
    """Run the single counter with ``policy_cls`` installed on every
    controller after construction (no built-in policy gives the
    verdict these corners need)."""
    cfg = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR)
    machine = Machine(cfg)
    for controller in machine.controllers:
        controller.policy = policy_cls(cfg, controller.cpu_id)
    workload = single_counter(4, 96)
    stats = machine.run_workload(workload)
    return RunResult(config=cfg, workload_name=workload.name, stats=stats,
                     store=machine.store)


def test_abort_requester_verdict_serves_and_kills():
    """A policy verdict of ABORT_REQUESTER surfaces as a remote abort:
    the holder serves the data, the requester's speculation dies.  No
    built-in policy uses it, so install a stub post-construction."""

    class HolderAlwaysWins(TimestampDeferral):
        name = "holder-always-wins"
        ordering = "none"

        def resolve(self, ctx):
            return PolicyDecision.ABORT_REQUESTER

    result = _run_with_policy(HolderAlwaysWins)
    # The workload validator ran (counter correct); conflicts were
    # resolved by killing requesters, not by deferral.
    assert result.stats.summary()["restarts"] > 0
    assert result.stats.summary()["requests_deferred"] == 0
    assert result_fingerprint(result) == GOLDEN_ABORT_REQUESTER[
        "holder-always-wins"]


def test_abort_requester_at_the_snoop_refuses_and_kills():
    """Under a NACK-retaining policy an ABORT_REQUESTER verdict at the
    snoop refuses the request and names the refusing holder on it; the
    requester's transaction restarts before its retry."""

    class RefuseAndKill(NackRetention):
        name = "refuse-and-kill"
        ordering = "none"

        def resolve(self, ctx):
            decision = super().resolve(ctx)
            if decision is PolicyDecision.NACK_RETRY:
                return PolicyDecision.ABORT_REQUESTER
            return decision

    result = _run_with_policy(RefuseAndKill)
    assert result.stats.summary()["nacks_sent"] > 0
    assert result.stats.summary()["restarts"] > 0
    assert result_fingerprint(result) == GOLDEN_ABORT_REQUESTER[
        "refuse-and-kill"]


def test_monitor_flags_deferral_under_no_ordering_policy():
    """The deferral monitor reads the policy's declared ordering
    contract: a policy that claims ``ordering="none"`` must never be
    seen deferring.  Force the contradiction by lying about the
    contract on a machine that really defers."""
    machine = Machine(SystemConfig(num_cpus=4, scheme=SyncScheme.TLR))
    for controller in machine.controllers:
        controller.policy.ordering = "none"
    MonitorSuite(machine).attach()
    with pytest.raises(InvariantViolation, match="deferral-order"):
        machine.run_workload(single_counter(4, 96))


def test_oracle_handles_mixed_lock_and_transactional_history():
    """Era regression: lock-fallback critical sections interleave plain
    writes with committed transactions on the same lines.  The oracle's
    per-(line, era) version order must not fabricate rw-cycles across
    the plain writes (fallback_k=1 maximizes the mixing)."""
    for seed in range(5):
        cfg = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR, seed=seed
                           ).with_policy("requester-wins", fallback_k=1)
        spec = RunSpec(workload="single-counter", config=cfg,
                       workload_args={"total_increments": 96})
        result = verify_run(spec)
        assert result.ok, result.violations or result.error
        assert result.summary["lock_fallbacks"] > 0  # mixing occurred
