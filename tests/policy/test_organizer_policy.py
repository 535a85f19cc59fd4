"""Tests for goal-driven organizer passes and fleet arbitration."""

from types import SimpleNamespace

from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.core.events import EventKind
from repro.core.organizer import Organizer, OrganizerConfig
from repro.core.triggers import NeverTrigger, PeriodicTrigger
from repro.fleet.arbiter import FleetConfig, FleetOrganizer
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models import NaiveLastValue
from repro.forecasting.predictor import WorkloadPredictor
from repro.guard.forecast_miss import ForecastMissVerdict
from repro.kpi.metrics import (
    POLICY_PLANS_EVALUATED,
    POLICY_PLANS_EXECUTED,
    POLICY_REPLANS,
)
from repro.policy import ObjectiveSpec, PolicyConfig, PolicyEngine
from repro.policy.engine import POLICY_TRIGGER
from repro.tuning.features import CompressionFeature, IndexSelectionFeature
from repro.tuning.tuner import Tuner
from repro.util.units import MIB
from tests.fleet.test_arbiter import admit


def _prepare(retail_suite, bins=5, per_bin=25):
    db = retail_suite.database
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    for i in range(bins):
        for q in retail_suite.mix.sample_queries(per_bin, seed=100 + i):
            db.execute(q)
        predictor.observe()
    return db, predictor


def _policy_engine(bound_ms=500.0, **kwargs):
    return PolicyEngine.from_config(
        PolicyConfig(
            objectives=(
                ObjectiveSpec(kind="latency", bound=bound_ms),
                ObjectiveSpec(kind="memory", bound=64 * MIB),
            ),
            **kwargs,
        )
    )


def _organizer(db, predictor, policy=None, **config_kwargs):
    return Organizer(
        db,
        predictor,
        [Tuner(IndexSelectionFeature(), db), Tuner(CompressionFeature(), db)],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 1 * MIB)]),
        triggers=[PeriodicTrigger(every_ms=1.0)],
        config=OrganizerConfig(
            horizon_bins=3, min_history_bins=3, **config_kwargs
        ),
        policy=policy,
    )


def test_tick_with_policy_runs_plan_stages(retail_suite):
    db, predictor = _prepare(retail_suite)
    organizer = _organizer(db, predictor, policy=_policy_engine())
    report = organizer.tick()
    assert report is not None
    assert report.plan is not None
    assert report.plan.chosen is not None
    assert report.tuned_features == report.plan.chosen.features
    # features proposed but left out of the chosen plan count as skipped
    proposed = {step.feature for step in report.plan.steps}
    assert proposed - set(report.tuned_features) <= set(
        report.skipped_features
    )
    kinds = [e.kind for e in organizer.events.events()]
    assert EventKind.POLICY in kinds
    assert EventKind.TUNING_FINISHED in kinds
    snap = organizer.telemetry.registry.snapshot()
    assert snap[POLICY_PLANS_EVALUATED] >= 1
    assert snap[POLICY_PLANS_EXECUTED] == 1
    # the pass went on guard probation like any reactive commit
    assert organizer.guard.active_commit is not None


def test_policy_pass_chosen_plan_event_names_features(retail_suite):
    db, predictor = _prepare(retail_suite)
    organizer = _organizer(db, predictor, policy=_policy_engine())
    report = organizer.tick()
    events = organizer.events.events(EventKind.POLICY)
    assert events
    chosen = [e for e in events if "plan chosen" in e.message]
    assert len(chosen) == 1
    assert chosen[0].data["features"] == list(report.plan.chosen.features)
    assert chosen[0].data["alternatives"] == len(report.plan.alternatives)


def test_run_policy_pass_without_engine_falls_back(retail_suite):
    db, predictor = _prepare(retail_suite)
    organizer = _organizer(db, predictor, policy=None)
    report = organizer.run_policy_pass()
    assert report is not None
    assert report.plan is None  # plain reactive pass
    assert report.decision.trigger == "manual"


def test_policy_organizer_gains_objective_trigger(retail_suite):
    db, predictor = _prepare(retail_suite)
    # an impossible latency bound: always violated once KPIs exist
    engine = PolicyEngine.from_config(
        PolicyConfig(
            objectives=(ObjectiveSpec(kind="latency", bound=1e-9),),
            violation_patience=1,
        )
    )
    organizer = Organizer(
        db,
        predictor,
        [Tuner(CompressionFeature(), db)],
        triggers=[NeverTrigger()],
        config=OrganizerConfig(horizon_bins=3, min_history_bins=3),
        policy=engine,
    )
    assert organizer.policy is engine
    # the monitor samples per interval: execute inside this one
    for q in retail_suite.mix.sample_queries(10, seed=1):
        db.execute(q)
    organizer.monitor.sample()
    decision = organizer.evaluate_triggers()
    # the auto-appended objective-violation trigger fires
    assert decision.should_tune
    assert decision.trigger == POLICY_TRIGGER
    assert "violated" in decision.reason


def test_policy_status_reports_without_counting(retail_suite):
    db, predictor = _prepare(retail_suite)
    organizer = _organizer(db, predictor, policy=_policy_engine())
    before = organizer.telemetry.registry.snapshot()
    assessment = organizer.policy_status()
    assert assessment is not None
    assert len(assessment.statuses) == 2
    after = organizer.telemetry.registry.snapshot()
    # a status read is not a policy evaluation
    assert after == before
    assert _organizer(db, predictor).policy_status() is None


def test_forecast_miss_replans_under_policy(retail_suite):
    db, predictor = _prepare(retail_suite)
    organizer = _organizer(db, predictor, policy=_policy_engine())
    verdict = ForecastMissVerdict(
        distance=0.6,
        nearest_scenario="expected",
        miss=True,
        streak=3,
        escalate=True,
    )
    organizer._escalate(verdict)
    snap = organizer.telemetry.registry.snapshot()
    assert snap[POLICY_REPLANS] == 1
    replans = [
        e
        for e in organizer.events.events(EventKind.POLICY)
        if "re-planning" in e.message
    ]
    assert len(replans) == 1
    assert replans[0].data["distance"] == 0.6


# ----------------------------------------------------------------------
# fleet arbitration (fakes, as in tests/fleet/test_arbiter.py)


def _fake_context(tenant, active_commit=None):
    def recent_scenario(window_bins, horizon_bins):
        return SimpleNamespace(frequencies={"q1": 8.0, "q2": 2.0})

    return SimpleNamespace(
        tenant=tenant,
        database=SimpleNamespace(clock=SimpleNamespace(now_ms=0.0)),
        organizer=SimpleNamespace(
            guard=SimpleNamespace(active_commit=active_commit),
            last_tuning_ms=None,
        ),
        monitor=SimpleNamespace(mean=lambda metric, last_n=None: 10.0),
        predictor=SimpleNamespace(
            history_bins=8, recent_scenario=recent_scenario
        ),
    )


def test_policy_passes_are_arbitrated_not_urgent():
    # under a zero-concurrency cap an SLA breach still bypasses
    # arbitration, but an objective violation waits its turn
    arbiter = FleetOrganizer(
        FleetConfig(max_concurrent_reconfigurations=0, tenant_cooldown_ms=1e9)
    )
    ctx = _fake_context("t0", active_commit=object())
    other = _fake_context("t1", active_commit=object())
    arbiter.register(ctx)
    arbiter.register(other)
    admitted, reason = admit(arbiter, ctx, POLICY_TRIGGER)
    assert not admitted
    assert "cap" in reason
    admitted, reason = admit(arbiter, ctx, "sla_violation")
    assert admitted
    assert "urgent" in reason


def test_policy_passes_admitted_when_nothing_competes():
    arbiter = FleetOrganizer()
    ctx = _fake_context("t0")
    arbiter.register(ctx)
    admitted, reason = admit(arbiter, ctx, POLICY_TRIGGER)
    assert admitted
    assert reason == "admitted"
