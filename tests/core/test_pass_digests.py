"""Golden pin: single-tenant closed-loop fingerprints per organizer pass path.

The organizer runs three kinds of pass — trigger-reactive, policy
(plan-propose / plan-evaluate / plan-execute) and fleet replay — plus
the guard's rollback and escalation around them. Each scenario below
drives one of those paths through a closed loop and hashes what the
loop observably did:

- the bin records (or, for the hand-driven bad-commit loop, the
  per-bin mean latencies);
- the event stream, with host-wall-clock ``*seconds`` data keys dropped;
- the configuration-store records;
- the guard-ledger snapshot;
- the final configuration instance;
- the telemetry registry's counters.

The digests were recorded before the pass paths were folded into one
pipeline, so that refactor is checked against the old code's output,
not against itself. Replayed passes are pinned through fleet replays in
``tests/fleet/test_serial_digests.py``.

Each test also asserts the events that prove its path ran, so a digest
cannot pass vacuously. The setups are the ``--quick`` settings of the
E14, E16 and E20 benchmarks and a reduced ``python -m repro simulate``.
"""

from __future__ import annotations

from dataclasses import replace

from repro import (
    ClosedLoopSimulation,
    ConstraintSet,
    Driver,
    DriverConfig,
    FaultConfig,
    GuardConfig,
    ObjectiveSpec,
    Organizer,
    OrganizerConfig,
    PolicyConfig,
    ResourceBudget,
)
from repro.__main__ import _bootstrap, build_parser
from repro.configuration import INDEX_MEMORY
from repro.configuration.config import ConfigurationInstance
from repro.core import EventKind, ForecastDriftTrigger, PeriodicTrigger
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models import NaiveLastValue
from repro.forecasting.predictor import WorkloadPredictor
from repro.kpi import metrics
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.tuning import standard_features
from repro.tuning.assessors import MiscalibratedAssessor
from repro.tuning.features import BufferPoolFeature, DataPlacementFeature
from repro.tuning.tuner import Tuner
from repro.util.units import MIB
from repro.workload import build_retail_suite, generate_trace, swap_dominance
from tests.digest import digest

#: scenario -> SHA-256 of its fingerprint, recorded before the refactor
DIGESTS = {
    "e20_objective": "9cccd7ffcef728ddb8be68f4f4bb15f7"
    "0105e5202c31be8013961f35c730e565",
    "e20_replan": "a973bbba714d98e9ef8bfbef895ef63a"
    "760b7ef41d2bc4e6e884e7fb27dd9c7d",
    "e16_bad_commit": "1a68c33f1330af46f5fdb65544d254dc"
    "7fb3233747fa508442112f4a3cd49155",
    "e16_drift": "558cb5327db68c151ec9967a9ea4fcb9"
    "c5c6e64839e7cfbfacbfdcd645832efc",
    "e14_faults": "e21f771f7b02444f85d193b72d44985a"
    "6af78528df5e289b7373e1cbb951af15",
    "heavy_faults": "ff636d39ff59ca33e9f8aaa85648fc6b"
    "993924123232e51535befe14ab410e64",
    "simulate": "1916114962264a470e66fcdbeb225eff"
    "c2a7a0a720cba2e08a66d7a3a0363a36",
}

#: the E16/E20 guard settings
GUARD = GuardConfig(
    baseline_samples=4,
    min_samples=3,
    probation_samples=8,
    regression_bound=0.30,
)
#: E20's declared objectives: p99 under 50 ms, index memory under 4 MiB
POLICY = PolicyConfig(
    name="e20-slo",
    objectives=(
        ObjectiveSpec(kind="latency", bound=50.0, metric="p99"),
        ObjectiveSpec(kind="memory", bound=4.0 * MIB),
    ),
)


def _suite():
    return build_retail_suite(
        orders_rows=20_000, inventory_rows=5_000, chunk_size=8_192
    )


def _swapped_trace(suite, bins: int, swap_at: int, seed: int):
    trace = generate_trace(
        suite.families, suite.rates, bins, bin_duration_ms=60_000, seed=seed
    )
    by_rate = sorted(suite.rates, key=lambda name: suite.rates[name].base)
    return swap_dominance(trace, by_rate[-1], by_rate[0], at_bin=swap_at)


def _events(log):
    """Events with host-wall-clock measurements stripped from data."""
    return [
        (
            event.at_ms,
            event.kind,
            event.message,
            {k: v for k, v in event.data.items() if not k.endswith("seconds")},
        )
        for event in log.events()
    ]


def _fingerprint(bins, organizer, db):
    return (
        bins,
        _events(organizer.events),
        list(organizer.store.history()),
        organizer.guard.ledger.snapshot(),
        ConfigurationInstance.capture(db),
        organizer.telemetry.registry.snapshot_counters(),
    )


def _simulate(db, trace, driver, seed: int):
    """Run the closed loop; returns ``(organizer, fingerprint)``."""
    db.plugin_host.attach(driver)
    records = ClosedLoopSimulation(db, trace, seed=seed).run()
    return driver.organizer, _fingerprint(records, driver.organizer, db)


def _messages(organizer, kind: EventKind) -> list[str]:
    return [e.message for e in organizer.events.events(kind)]


# ----------------------------------------------------------------------
# scenarios


def run_e20_objective():
    """E20 ``--quick --only objective`` (seed 1, 12 bins): the policy
    arm; the reactive arm is the ``simulate`` path."""
    suite = _suite()
    trace = generate_trace(
        suite.families, suite.rates, 12, bin_duration_ms=60_000, seed=1
    )
    driver = _policy_driver(tune_every_ms=6 * 60_000.0, guard=None)
    return _simulate(suite.database, trace, driver, seed=1)


def run_e20_replan():
    """E20 ``--quick --only replan`` (seed 1, 16 bins, swap at 8)."""
    suite = _suite()
    trace = _swapped_trace(suite, bins=16, swap_at=8, seed=1)
    driver = _policy_driver(tune_every_ms=2 * 16 * 60_000.0, guard=GUARD)
    return _simulate(suite.database, trace, driver, seed=1)


def _policy_driver(tune_every_ms: float, guard: GuardConfig | None):
    organizer = OrganizerConfig(horizon_bins=4, min_history_bins=4)
    if guard is not None:
        organizer = replace(organizer, guard=guard)
    return Driver(
        standard_features()[:3],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 4.0 * MIB)]),
        triggers=[PeriodicTrigger(every_ms=tune_every_ms)],
        config=DriverConfig(organizer=organizer, policy=POLICY),
    )


def run_e16_bad_commit():
    """E16 ``--only bad_commit`` (seed 1): a miscalibrated pass rolled
    back by the regression watchdog."""
    seed = 1
    suite = _suite()
    db = suite.database
    tuners = [
        Tuner(
            feature,
            db,
            assessor=MiscalibratedAssessor(
                feature.make_assessor(db), scale=-1.0
            ),
        )
        for feature in (DataPlacementFeature(), BufferPoolFeature())
    ]
    predictor = WorkloadPredictor(db, WorkloadAnalyzer(NaiveLastValue))
    monitor = RuntimeKPIMonitor(db)
    organizer = Organizer(
        db,
        predictor,
        tuners,
        monitor=monitor,
        config=OrganizerConfig(
            horizon_bins=3,
            min_history_bins=3,
            guard=replace(GUARD, tv_threshold=1.0),
        ),
    )

    def run_bin(bin_seed: int) -> float:
        for q in suite.mix.sample_queries(30, seed=bin_seed):
            db.execute(q)
        db.clock.advance(1_000.0)
        predictor.observe()
        return monitor.sample().get(metrics.MEAN_QUERY_MS)

    bins = [run_bin(seed * 1_000 + i) for i in range(5)]
    organizer.run_tuning()
    for i in range(10):
        bins.append(run_bin(seed * 2_000 + i))
        organizer.guard_tick()
    return organizer, _fingerprint(bins, organizer, db)


def run_e16_drift():
    """E16 ``--quick --only drift`` (seed 1, 16 bins, swap at 8)."""
    suite = _suite()
    trace = _swapped_trace(suite, bins=16, swap_at=8, seed=1)
    driver = Driver(
        standard_features()[:2],
        triggers=[PeriodicTrigger(every_ms=2 * 16 * 60_000.0)],
        config=DriverConfig(
            organizer=OrganizerConfig(
                horizon_bins=4, min_history_bins=4, guard=GUARD
            )
        ),
    )
    return _simulate(suite.database, trace, driver, seed=1)


def run_e14_faults(
    seed: int = 2, failure_rate: float = 0.10, transient_fraction=0.75
):
    """E14 ``--quick --seed 2`` (18 bins): the faulty arm."""
    suite = _suite()
    trace = generate_trace(
        suite.families, suite.rates, 18, bin_duration_ms=60_000, seed=33
    )
    driver = Driver(
        standard_features()[:2],
        constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 4 * MIB)]),
        triggers=[PeriodicTrigger(every_ms=3 * 60_000)],
        config=DriverConfig(
            organizer=OrganizerConfig(horizon_bins=3, min_history_bins=3),
            faults=FaultConfig(
                seed=seed,
                failure_rate=failure_rate,
                transient_fraction=transient_fraction,
                latency_spike_rate=0.05,
                latency_spike_ms=250.0,
            ),
        ),
    )
    return _simulate(suite.database, trace, driver, seed=9)


def run_heavy_faults():
    """The E14 setup at a 30% permanent failure rate: features fail
    often enough in a row for the breaker to quarantine them."""
    return run_e14_faults(seed=1, failure_rate=0.30, transient_fraction=0.0)


def run_simulate():
    """``python -m repro simulate`` at reduced size, through the CLI's
    own bootstrap and organizer settings."""
    args = build_parser().parse_args(
        ["simulate", "--rows", "4000", "--bins", "8",
         "--tune-every-bins", "3", "--features", "2", "--seed", "3"]
    )
    _, _, _, driver, simulation = _bootstrap(
        args,
        triggers=[
            PeriodicTrigger(every_ms=args.tune_every_bins * 60_000),
            ForecastDriftTrigger(relative_threshold=0.25),
        ],
        organizer=OrganizerConfig(
            horizon_bins=4, min_history_bins=4, cooldown_ms=3 * 60_000
        ),
    )
    records = simulation.run()
    return driver.organizer, _fingerprint(
        records, driver.organizer, driver.database
    )


# ----------------------------------------------------------------------
# the pins


def test_e20_objective_policy_passes_match_recorded_digest():
    organizer, fingerprint = run_e20_objective()
    assert any(
        m.startswith("plan chosen")
        for m in _messages(organizer, EventKind.POLICY)
    )
    assert _messages(organizer, EventKind.TUNING_FINISHED)
    assert digest(fingerprint) == DIGESTS["e20_objective"]


def test_e20_replan_escalation_matches_recorded_digest():
    organizer, fingerprint = run_e20_replan()
    assert any(
        m.startswith("forecast miss escalated")
        for m in _messages(organizer, EventKind.GUARD)
    )
    assert any(
        "re-planning" in m for m in _messages(organizer, EventKind.POLICY)
    )
    assert digest(fingerprint) == DIGESTS["e20_replan"]


def test_e16_bad_commit_rollback_matches_recorded_digest():
    organizer, fingerprint = run_e16_bad_commit()
    rollbacks = organizer.events.events(EventKind.ROLLBACK)
    assert any("commit_id" in e.data for e in rollbacks)
    assert digest(fingerprint) == DIGESTS["e16_bad_commit"]


def test_e16_drift_escalation_matches_recorded_digest():
    organizer, fingerprint = run_e16_drift()
    assert any(
        m.startswith("forecast miss escalated")
        for m in _messages(organizer, EventKind.GUARD)
    )
    assert any(
        r.trigger == "forecast_miss" for r in organizer.store.history()
    )
    assert digest(fingerprint) == DIGESTS["e16_drift"]


def test_e14_faulty_passes_match_recorded_digest():
    organizer, fingerprint = run_e14_faults()
    assert _messages(organizer, EventKind.FAULT)
    assert _messages(organizer, EventKind.ROLLBACK)
    assert digest(fingerprint) == DIGESTS["e14_faults"]


def test_heavy_faults_quarantine_matches_recorded_digest():
    organizer, fingerprint = run_heavy_faults()
    assert _messages(organizer, EventKind.FAULT)
    assert any(
        e.data.get("state") == "opened"
        for e in organizer.events.events(EventKind.QUARANTINE)
    )
    assert "tuning skipped: all features quarantined" in _messages(
        organizer, EventKind.SKIP
    )
    assert digest(fingerprint) == DIGESTS["heavy_faults"]


def test_simulate_reactive_passes_match_recorded_digest():
    organizer, fingerprint = run_simulate()
    assert len(_messages(organizer, EventKind.TUNING_FINISHED)) >= 2
    assert digest(fingerprint) == DIGESTS["simulate"]


if __name__ == "__main__":  # pragma: no cover - re-recording aid
    # PYTHONPATH=src python -m tests.core.test_pass_digests
    for name in DIGESTS:
        print(name, digest(globals()[f"run_{name}"]()[1]))
