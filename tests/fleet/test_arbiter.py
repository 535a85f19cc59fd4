"""Unit tests for fleet admission arbitration (fakes, no databases)."""

from types import SimpleNamespace

import pytest

from repro.fleet.arbiter import (
    FleetConfig,
    FleetOrganizer,
    compute_digest,
    rule_admission,
)


def admit(arbiter, ctx, trigger="periodic"):
    """One admission as a fleet tick makes it: rule from a frozen view of
    the arbiter (every registered tenant's digest), apply the ruling."""
    config = arbiter.config
    view = arbiter.view(
        {
            tenant: compute_digest(other, config)
            for tenant, other in arbiter._tenants.items()
        }
    )
    ruling = rule_admission(view, compute_digest(ctx, config), trigger)
    arbiter.apply_ruling(ruling)
    return ruling.admitted, ruling.reason


def _fake_context(
    tenant,
    now_ms=0.0,
    active_commit=None,
    hotness=10.0,
    mix=None,
    history_bins=8,
):
    """The slice of TenantContext the arbiter's admission path reads."""
    mix = {"q1": 8.0, "q2": 2.0} if mix is None else mix

    def recent_scenario(window_bins, horizon_bins):
        return SimpleNamespace(frequencies=dict(mix))

    return SimpleNamespace(
        tenant=tenant,
        database=SimpleNamespace(clock=SimpleNamespace(now_ms=now_ms)),
        organizer=SimpleNamespace(
            guard=SimpleNamespace(active_commit=active_commit),
            last_tuning_ms=None,
        ),
        monitor=SimpleNamespace(mean=lambda metric, last_n=None: hotness),
        predictor=SimpleNamespace(
            history_bins=history_bins, recent_scenario=recent_scenario
        ),
    )


def test_admits_when_nothing_competes():
    arbiter = FleetOrganizer()
    ctx = _fake_context("t0")
    arbiter.register(ctx)
    admitted, reason = admit(arbiter, ctx)
    assert admitted
    assert reason == "admitted"


def test_sla_violations_bypass_all_arbitration():
    arbiter = FleetOrganizer(
        FleetConfig(max_concurrent_reconfigurations=0, tenant_cooldown_ms=1e9)
    )
    ctx = _fake_context("t0")
    arbiter.register(ctx)
    admitted, reason = admit(arbiter, ctx, "sla_violation")
    assert admitted
    assert "urgent" in reason


def test_fleet_cooldown_defers_repeat_admissions():
    arbiter = FleetOrganizer(FleetConfig(tenant_cooldown_ms=10_000.0))
    ctx = _fake_context("t0", now_ms=0.0, hotness=10.0, mix={"q": 1.0})
    arbiter.register(ctx)
    assert admit(arbiter, ctx)[0]
    ctx.database.clock.now_ms = 5_000.0
    admitted, reason = admit(arbiter, ctx)
    assert not admitted
    assert "cooldown" in reason
    ctx.database.clock.now_ms = 10_000.0
    assert admit(arbiter, ctx)[0]


def test_concurrent_reconfiguration_cap_counts_other_tenants():
    arbiter = FleetOrganizer(
        FleetConfig(max_concurrent_reconfigurations=1, share_priors=False)
    )
    busy = _fake_context("t0", active_commit=object())
    candidate = _fake_context("t1", mix={"other": 1.0})
    arbiter.register(busy)
    arbiter.register(candidate)
    admitted, reason = admit(arbiter, candidate)
    assert not admitted
    assert "cap" in reason


def test_cap_never_counts_the_candidate_itself():
    # a one-tenant fleet under probation must still admit itself: the
    # golden single-tenant identity depends on this
    arbiter = FleetOrganizer(FleetConfig(max_concurrent_reconfigurations=1))
    ctx = _fake_context("t0", active_commit=object())
    arbiter.register(ctx)
    assert admit(arbiter, ctx)[0]


def test_cold_lookalike_defers_to_the_hotter_tenant():
    arbiter = FleetOrganizer(FleetConfig(max_defer_bins=2))
    hot = _fake_context("t0", hotness=100.0)
    cold = _fake_context("t1", hotness=10.0)
    arbiter.register(hot)
    arbiter.register(cold)
    admitted, reason = admit(arbiter, cold)
    assert not admitted
    assert "t0" in reason
    # the starvation bound: after max_defer_bins denials it tunes anyway
    assert not admit(arbiter, cold)[0]
    assert admit(arbiter, cold)[0]


def test_hot_tenant_is_not_deferred():
    arbiter = FleetOrganizer()
    hot = _fake_context("t0", hotness=100.0)
    cold = _fake_context("t1", hotness=10.0)
    arbiter.register(hot)
    arbiter.register(cold)
    assert admit(arbiter, hot)[0]


def test_different_mixes_are_not_lookalikes():
    arbiter = FleetOrganizer()
    hot = _fake_context("t0", hotness=100.0, mix={"a": 1.0})
    cold = _fake_context("t1", hotness=10.0, mix={"b": 1.0})
    arbiter.register(hot)
    arbiter.register(cold)
    # disjoint mixes (total variation 1.0): no cluster, no deferral
    assert admit(arbiter, cold)[0]


def test_register_rejects_duplicate_tenants():
    arbiter = FleetOrganizer()
    arbiter.register(_fake_context("t0"))
    with pytest.raises(ValueError):
        arbiter.register(_fake_context("t0"))


def test_summary_shape():
    arbiter = FleetOrganizer()
    arbiter.register(_fake_context("t0"))
    summary = arbiter.summary()
    assert summary["tenants"] == 1
    assert summary["priors"] == 0
    assert summary["full_passes"] == 0
    assert summary["replays_applied"] == 0
    assert summary["active_reconfigurations"] == 0


# ----------------------------------------------------------------------
# stale defer counts (regression: a committed pass must reset the
# wait-for-prior tally, however the pass was admitted)


def test_sla_admission_clears_pending_defers():
    arbiter = FleetOrganizer(FleetConfig(max_defer_bins=4))
    hot = _fake_context("t0", hotness=100.0)
    cold = _fake_context("t1", hotness=10.0)
    arbiter.register(hot)
    arbiter.register(cold)
    assert not admit(arbiter, cold)[0]
    assert not admit(arbiter, cold)[0]
    assert arbiter._defers["t1"] == 2
    # an SLA breach admits unconditionally — and resets the tally
    assert admit(arbiter, cold, "sla_violation")[0]
    assert "t1" not in arbiter._defers


def test_harvested_commit_clears_pending_defers():
    """A guard-escalated commit bypasses admission entirely; the harvest
    (the commit listener) is the only place its defers can be reset."""
    from repro.fleet.arbiter import HarvestRecord

    arbiter = FleetOrganizer(FleetConfig(max_defer_bins=4))
    hot = _fake_context("t0", hotness=100.0)
    cold = _fake_context("t1", hotness=10.0)
    arbiter.register(hot)
    arbiter.register(cold)
    assert not admit(arbiter, cold)[0]
    assert arbiter._defers["t1"] == 1
    arbiter.ingest_harvest(
        HarvestRecord(
            tenant="t1",
            features=("index",),
            actions=(),
            predicted_benefit_ms=0.0,
            mix={"q1": 1.0},
            created_at_ms=0.0,
        )
    )
    assert "t1" not in arbiter._defers
    assert arbiter.full_passes("t1") == 1
    # actions were empty, so no prior was harvested from it
    assert arbiter.priors == ()


def test_applied_replay_clears_pending_defers():
    """The prior a tenant was deferring for has arrived: the tally must
    reset when a replay applies, or the starvation bound is skewed."""
    from repro.fleet.arbiter import (
        ReplayOutcome,
        TenantDigest,
        TuningPrior,
    )

    arbiter = FleetOrganizer(FleetConfig(max_defer_bins=4))
    hot = _fake_context("t0", hotness=100.0)
    cold = _fake_context("t1", hotness=10.0)
    arbiter.register(hot)
    arbiter.register(cold)
    assert not admit(arbiter, cold)[0]
    assert arbiter._defers["t1"] == 1
    arbiter._priors.append(
        TuningPrior(
            prior_id=1,
            source="t0",
            features=("index",),
            actions=(),
            mix={"q1": 8.0, "q2": 2.0},
            predicted_benefit_ms=5.0,
            created_at_ms=100.0,
        )
    )

    class _AppliedTransport:
        """Replay transport stub: every attempt applies."""

        def active_reconfigurations(self):
            return 0

        def digest(self, tenant):
            return TenantDigest(
                tenant=tenant,
                index=1,
                hotness=10.0,
                mix={"q1": 8.0, "q2": 2.0},
                guard_active=False,
                last_tuning_ms=None,
                now_ms=200.0,
            )

        def attempt(self, prior, tenant):
            return ReplayOutcome(
                prior.prior_id, prior.source, tenant,
                applied=True, reason="applied",
            )

    outcomes = arbiter.replay_round(_AppliedTransport())
    assert [o.applied for o in outcomes] == [True]
    assert arbiter.replays("t1") == 1
    assert "t1" not in arbiter._defers
