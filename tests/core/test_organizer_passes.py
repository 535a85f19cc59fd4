"""Organizer pass branches: a failed fleet replay and an empty policy plan."""

from repro.configuration.actions import CreateIndexAction
from repro.configuration.config import ConfigurationInstance
from repro.configuration.constraints import (
    INDEX_MEMORY,
    ConstraintSet,
    ResourceBudget,
)
from repro.core.events import EventKind
from repro.core.organizer import Organizer, OrganizerConfig
from repro.core.triggers import PeriodicTrigger
from repro.faults import FaultConfig, FaultInjector
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models import NaiveLastValue
from repro.forecasting.predictor import WorkloadPredictor
from repro.policy import ObjectiveSpec, PolicyConfig, PolicyEngine
from repro.tuning.executors import SequentialExecutor
from repro.tuning.features import IndexSelectionFeature
from repro.tuning.tuner import Tuner
from repro.util.units import MIB

COOLDOWN_MS = 60_000.0


def _organizer(retail_suite, index_budget_bytes, **kwargs):
    db = retail_suite.database
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    for i in range(4):
        for q in retail_suite.mix.sample_queries(25, seed=100 + i):
            db.execute(q)
        predictor.observe()
    organizer = Organizer(
        db,
        predictor,
        [Tuner(IndexSelectionFeature(), db)],
        constraints=ConstraintSet(
            [ResourceBudget(INDEX_MEMORY, index_budget_bytes)]
        ),
        triggers=[PeriodicTrigger(every_ms=1.0)],
        config=OrganizerConfig(
            horizon_bins=3, min_history_bins=3, cooldown_ms=COOLDOWN_MS
        ),
        **kwargs,
    )
    return db, organizer


def test_failed_replay_rolls_back_and_commits_nothing(retail_suite):
    # every application fails permanently: no retry can save the replay
    injector = FaultInjector(
        FaultConfig(seed=0, failure_rate=1.0, transient_fraction=0.0)
    )
    db, organizer = _organizer(
        retail_suite,
        1 * MIB,
        executor=SequentialExecutor(injector=injector),
    )
    before = ConfigurationInstance.capture(db)

    report = organizer.replay_pass(
        [CreateIndexAction("orders", ("customer",))],
        features=("index_selection",),
        source="t0",
        cost_before_ms=2.0,
        cost_after_ms=1.0,
    )

    assert report is not None and report.failed_action is not None
    events = organizer.events.events()
    kinds = [e.kind for e in events]
    assert kinds[-2:] == [EventKind.FAULT, EventKind.ROLLBACK]
    fault, rollback = events[-2:]
    assert fault.message.startswith("replayed pass from t0 failed: ")
    assert fault.data["source"] == "t0"
    assert rollback.message == (
        f"rolled back {report.rollback_actions} actions of failed replay"
    )
    assert rollback.data["source"] == "t0"
    assert EventKind.TUNING_FINISHED not in kinds
    # nothing was committed: no record, no probation ...
    assert len(organizer.store) == 0
    assert organizer.guard.active_commit is None
    assert organizer.guard.ledger.snapshot() == []
    # ... yet the attempt counts for the cooldown, and the database is
    # exactly as it was
    assert organizer.last_tuning_ms == db.clock.now_ms
    assert ConfigurationInstance.capture(db) == before


def test_empty_policy_plan_skips_and_restarts_cooldown(retail_suite):
    # with no index memory at all, index selection proposes nothing
    db, organizer = _organizer(
        retail_suite,
        0.0,
        policy=PolicyEngine.from_config(
            PolicyConfig(
                objectives=(ObjectiveSpec(kind="latency", bound=500.0),)
            )
        ),
    )

    assert organizer.tick() is None

    skip = organizer.events.events(EventKind.SKIP)[-1]
    assert skip.message == "policy pass skipped: no feature proposes a change"
    assert skip.data["trigger"] == "periodic"
    assert EventKind.TUNING_FINISHED not in [
        e.kind for e in organizer.events.events()
    ]
    assert len(organizer.store) == 0
    assert organizer.guard.active_commit is None
    # the empty plan still restarted the cooldown: the next tick waits
    assert organizer.last_tuning_ms == db.clock.now_ms
    assert organizer.tick() is None
    assert organizer.events.events()[-1].message == (
        f"tuning skipped: cooldown for another {COOLDOWN_MS:.0f} ms"
    )
