"""Unit tests for the contention-policy layer (repro.policies).

Truth-tables the four policies' ``resolve`` decisions against hand-built
conflicts, and pins the config plumbing: registry/name consistency, the
``with_policy`` convenience.
"""

import pytest

from repro.harness.config import SpeculationConfig, SyncScheme, SystemConfig
from repro.policies import (POLICIES, POLICY_NAMES, ConflictContext,
                            ContentionPolicy, PolicyDecision, make_policy)


def _cfg(policy="timestamp", **spec_kwargs):
    cfg = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR)
    return cfg.with_policy(policy) if not spec_kwargs else SystemConfig(
        num_cpus=4, scheme=SyncScheme.TLR,
        spec=SpeculationConfig(contention_policy=policy, **spec_kwargs))


def _ctx(requester_ts, holder_ts, **kwargs):
    defaults = dict(requester_ts=requester_ts, holder_ts=holder_ts,
                    relaxation_ok=False)
    defaults.update(kwargs)
    return ConflictContext(**defaults)


# ----------------------------------------------------------------------
# Registry and config plumbing
# ----------------------------------------------------------------------
def test_registry_matches_config_known_policies():
    # config.py cannot import repro.policies (layering), so the valid
    # names are mirrored there; this is the test that keeps them in sync.
    assert POLICY_NAMES == SpeculationConfig.KNOWN_POLICIES
    for name, cls in POLICIES.items():
        assert cls.name == name
        assert cls.ordering in ("timestamp", "priority", "none")


def test_make_policy_instantiates_each_and_rejects_unknown():
    for name in POLICY_NAMES:
        policy = make_policy(_cfg(name), cpu_id=2)
        assert isinstance(policy, ContentionPolicy)
        assert policy.name == name and policy.cpu_id == 2
    with pytest.raises(ValueError, match="bad contention_policy"):
        SpeculationConfig(contention_policy="optimism")


def test_with_policy():
    base = SystemConfig(num_cpus=4, scheme=SyncScheme.TLR)
    nack = base.with_policy("nack")
    assert nack.spec.contention_policy == "nack"
    back = nack.with_policy("timestamp")
    assert back.spec.contention_policy == "timestamp"
    # fallback_k passes through only when given.
    assert base.with_policy("requester-wins").spec.contention_fallback_k \
        == base.spec.contention_fallback_k
    assert base.with_policy("requester-wins", fallback_k=None) \
        .spec.contention_fallback_k is None
    with pytest.raises(ValueError):
        SpeculationConfig(contention_fallback_k=0)


# ----------------------------------------------------------------------
# timestamp: the paper's deferral policy
# ----------------------------------------------------------------------
def test_timestamp_resolve_truth_table():
    p = make_policy(_cfg("timestamp"), 0)
    holder = (10, 0)
    # Later-timestamped requester loses -> deferred.
    assert p.resolve(_ctx((11, 1), holder)) is PolicyDecision.DEFER
    # Earlier requester wins -> holder aborts ...
    assert p.resolve(_ctx((9, 1), holder)) is PolicyDecision.ABORT_HOLDER
    # ... unless the Section 3.2 relaxation holds.
    assert p.resolve(_ctx((9, 1), holder, relaxation_ok=True)) \
        is PolicyDecision.DEFER
    # Untimestamped requests defer by default (Section 2.2) ...
    assert p.resolve(_ctx(None, holder)) is PolicyDecision.DEFER
    # ... and abort the holder under untimestamped_policy="abort".
    p_abort = make_policy(_cfg("timestamp", untimestamped_policy="abort"), 0)
    assert p_abort.resolve(_ctx(None, holder)) \
        is PolicyDecision.ABORT_HOLDER


# ----------------------------------------------------------------------
# nack: same order, snoop-time refusal
# ----------------------------------------------------------------------
def test_nack_resolve_truth_table():
    p = make_policy(_cfg("nack"), 0)
    assert p.uses_nack
    holder = (10, 0)
    # At the snoop a won conflict becomes a refusal.
    assert p.resolve(_ctx((11, 1), holder, at_snoop=True)) \
        is PolicyDecision.NACK_RETRY
    # Past the order point a NACK is impossible: retention falls back
    # to deferral (the chained-request corner).
    assert p.resolve(_ctx((11, 1), holder)) is PolicyDecision.DEFER
    # A lost conflict aborts regardless of where it is decided.
    assert p.resolve(_ctx((9, 1), holder, at_snoop=True)) \
        is PolicyDecision.ABORT_HOLDER


# ----------------------------------------------------------------------
# requester-wins: best-effort HTM semantics
# ----------------------------------------------------------------------
def test_requester_wins_truth_table():
    p = make_policy(_cfg("requester-wins"), 0)
    assert p.ordering == "none" and not p.uses_nack
    holder = (10, 0)
    for ts in ((9, 1), (11, 1), None):
        assert p.resolve(_ctx(ts, holder)) is PolicyDecision.ABORT_HOLDER
    assert p.probe_beats((99, 1), holder)  # any waiter defeats the holder
    # Lock fallback after K attempts; None disables it (livelock).
    assert not p.should_fallback(3)
    assert p.should_fallback(4)
    p_none = make_policy(_cfg("requester-wins", contention_fallback_k=None),
                         0)
    assert not p_none.should_fallback(10_000)
    assert p.backoff_for(5) == p.config.spec.misspec_penalty


# ----------------------------------------------------------------------
# backoff: Polka-style priorities
# ----------------------------------------------------------------------
def test_backoff_priority_accumulation_and_truth_table():
    p = make_policy(_cfg("backoff"), 0)
    holder = (10, 0)
    # Equal priority: the timestamp total order breaks the tie.
    assert p.resolve(_ctx((9, 1), holder)) is PolicyDecision.ABORT_HOLDER
    assert p.resolve(_ctx((11, 1), holder, at_snoop=True)) \
        is PolicyDecision.NACK_RETRY
    # A lost conflict the holder would defer concedes instead when a
    # transactional miss is outstanding (priorities cannot order away
    # a wait cycle the way timestamps can).
    assert p.resolve(_ctx((11, 1), holder, holder_has_miss=True)) \
        is PolicyDecision.ABORT_HOLDER
    assert p.resolve(_ctx((11, 1), holder)) is PolicyDecision.DEFER
    # Priority rises on restarts (work lost) ...
    p.on_restart("conflict-lost", 1)
    p.on_restart("conflict-lost", 2)
    assert p.priority == 2 and p.request_priority() == 2
    assert p.resolve(_ctx((9, 1), holder, requester_prio=1)) \
        is PolicyDecision.DEFER  # requester is now weaker despite its ts
    assert p.resolve(_ctx((11, 1), holder, requester_prio=3)) \
        is PolicyDecision.ABORT_HOLDER
    # ... but NOT on NACKs: lockstep nack-escalation is mutual
    # starvation (two holders refusing each other forever).
    before = p.priority
    p.on_nacked(request=None)
    assert p.priority == before
    # NACK retry delay doubles per consecutive refusal; commit resets.
    base = p.config.spec.nack_retry_delay
    first = p.nack_delay(request=None)
    p.on_nacked(request=None)
    assert p.nack_delay(request=None) == 2 * first
    p.on_commit()
    assert p.priority == 0 and p.nack_delay(request=None) == base
    # Restart backoff grows exponentially with consecutive attempts.
    assert p.backoff_for(3) > p.backoff_for(2) > p.backoff_for(1) > 0
