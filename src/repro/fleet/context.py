"""The tenant context: one tenant's complete self-management stack.

Before the fleet layer existed, :class:`~repro.core.driver.Driver` wired
its components as bare attributes inside ``on_attach`` — workable with
one tenant, unliftable with N. :meth:`TenantContext.wire` now owns that
construction: the database, the telemetry spine, the event log, the KPI
monitor, the predictor, the what-if optimizer (and its per-tenant cost
cache), the failure-aware executor, the tuners, and the organizer (which
owns the guard's commit ledger) are built *per tenant* and travel as one
object. The driver delegates to it, so the single-tenant path is
literally a one-tenant fleet; the :class:`~repro.fleet.driver.FleetDriver`
builds one context per tenant and hands them to the arbiter.

Nothing in a context is shared between tenants. Cross-tenant state —
tuning priors, admission budgets, rollups — lives only in the
:class:`~repro.fleet.arbiter.FleetOrganizer`, which reads contexts but
never splices objects between them (the stats-sharing hazards this
refactor surfaced are tested in ``tests/fleet/test_isolation.py``).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.configuration.constraints import ConstraintSet
from repro.configuration.store import ConfigurationInstanceStorage
from repro.core.events import EventLog
from repro.core.organizer import Organizer
from repro.core.triggers import TuningTrigger
from repro.cost.calibration import run_design_exploration
from repro.cost.maintenance import AdaptiveCostMaintenancePlugin
from repro.cost.what_if import WhatIfCacheStats, WhatIfOptimizer
from repro.dbms.database import Database
from repro.faults.injector import FaultInjector
from repro.forecasting.analyzer import WorkloadAnalyzer
from repro.forecasting.models.ensemble import ModelFactory
from repro.forecasting.models.seasonal import SeasonalNaive
from repro.forecasting.predictor import WorkloadPredictor
from repro.kpi.monitor import RuntimeKPIMonitor
from repro.plan.cache import PlanCacheStats
from repro.telemetry import Telemetry
from repro.tuning.executors.sequential import SequentialExecutor
from repro.tuning.features.base import FeatureTuner
from repro.tuning.selectors.base import Selector
from repro.tuning.tuner import Tuner

if TYPE_CHECKING:
    from repro.core.driver import Driver, DriverConfig
    from repro.core.simulation import ClosedLoopSimulation
    from repro.tuning.executors.base import TuningExecutor
    from repro.workload.trace import WorkloadTrace


@dataclass
class TenantContext:
    """Everything one tenant's self-management loop owns.

    Built by :meth:`wire`; the fields mirror what used to be bare
    ``Driver`` attributes. ``trace``/``simulation`` are the tenant's
    workload slots, filled by the fleet builder (the legacy single-tenant
    path drives its own simulation and leaves them ``None``).
    """

    tenant: str
    database: Database
    telemetry: Telemetry
    events: EventLog
    store: ConfigurationInstanceStorage
    monitor: RuntimeKPIMonitor
    predictor: WorkloadPredictor
    optimizer: WhatIfOptimizer
    executor: "TuningExecutor"
    tuners: list[Tuner]
    organizer: Organizer
    features: list[FeatureTuner]
    cost_maintenance: AdaptiveCostMaintenancePlugin | None = None
    injector: FaultInjector | None = None
    # --- workload slots (fleet-assigned) -------------------------------
    #: the driver whose on_attach wired this context (fleet-assigned;
    #: the legacy path reaches the context via driver.context instead)
    driver: "Driver | None" = None
    trace: "WorkloadTrace | None" = None
    simulation: "ClosedLoopSimulation | None" = None
    #: index of the workload mix profile this tenant was built with
    profile: int = 0
    #: traffic multiplier relative to the hottest tenant (1.0 = hottest)
    volume_scale: float = 1.0
    #: per-tenant seed (data, trace, and simulation derive from it)
    seed: int = 0
    records: list = field(default_factory=list, repr=False)

    @classmethod
    def wire(
        cls,
        database: Database,
        features: list[FeatureTuner],
        config: "DriverConfig",
        constraints: ConstraintSet | None = None,
        model_factory: ModelFactory | None = None,
        selector: Selector | None = None,
        triggers: list[TuningTrigger] | None = None,
        reconfiguration_weight: float = 0.0,
        tenant: str = "",
    ) -> "TenantContext":
        """Build one tenant's full component stack around ``database``.

        This is the construction logic lifted out of ``Driver.on_attach``:
        one telemetry spine per tenant (spans and events flow through its
        sinks, counters through its registry), one event log, one KPI
        monitor deriving interval KPIs from that registry, one predictor,
        one shared what-if optimizer (organizer, dependence analyzer, and
        every feature's assessor price through the same epoch-keyed,
        per-tenant cost cache), one failure-aware executor, and one
        organizer owning quarantine and the guarded-commit ledger.
        """
        constraints = constraints or ConstraintSet()
        telemetry = Telemetry(database.clock, config.telemetry, tenant=tenant)
        events = EventLog(
            sink=telemetry.sink if telemetry.enabled else None,
            tenant=tenant,
        )
        store = ConfigurationInstanceStorage()
        monitor = RuntimeKPIMonitor(
            database, registry=telemetry.registry, tenant=tenant
        )
        # functools.partial (not a lambda) keeps the analyzer — and with
        # it the whole context — picklable for fleet process workers
        factory = model_factory or partial(
            SeasonalNaive, config.default_seasonal_period
        )
        analyzer = WorkloadAnalyzer(factory, config.analyzer)
        predictor = WorkloadPredictor(
            database, analyzer, bin_duration_ms=config.bin_duration_ms
        )
        cost_maintenance: AdaptiveCostMaintenancePlugin | None = None
        if config.fast_assessment:
            # the context owns the maintenance plugin directly (composition,
            # not host registration); the driver ticks it from its loop
            cost_maintenance = AdaptiveCostMaintenancePlugin()
            cost_maintenance.on_attach(database)
            run_design_exploration(database, cost_maintenance.model)
        # seeded fault injection (off unless configured): the injector
        # gates executor applications and perturbs what-if probes, with
        # its counters in the tenant's registry
        injector: FaultInjector | None = None
        if config.faults is not None:
            injector = FaultInjector(
                config.faults, registry=telemetry.registry
            )
        optimizer = WhatIfOptimizer(
            database, registry=telemetry.registry, injector=injector
        )
        executor = SequentialExecutor(
            injector=injector, retry=config.retry, telemetry=telemetry
        )
        # goal-driven planning: a declared PolicyConfig becomes a policy
        # engine the organizer binds to its registry and event log.
        # Imported lazily — the policy package is only loaded when a
        # policy is actually configured.
        policy = None
        if config.policy is not None:
            from repro.policy.engine import PolicyEngine

            policy = PolicyEngine.from_config(config.policy)
        tuners: list[Tuner] = []
        for feature in features:
            assessor = None
            if cost_maintenance is not None:
                assessor = feature.make_fast_assessor(
                    database, cost_maintenance.model
                )
            tuners.append(
                Tuner(
                    feature,
                    database,
                    assessor=assessor,
                    selector=selector,
                    reconfiguration_weight=reconfiguration_weight,
                    optimizer=optimizer,
                    telemetry=telemetry,
                )
            )
        organizer = Organizer(
            database,
            predictor,
            tuners,
            constraints=constraints,
            monitor=monitor,
            store=store,
            events=events,
            triggers=triggers,
            config=config.organizer,
            optimizer=optimizer,
            executor=executor,
            telemetry=telemetry,
            policy=policy,
        )
        # sampled per-query spans + exec work counters from the executor
        database.executor.bind_telemetry(telemetry)
        if telemetry.enabled:
            # compiled-plan compile/cache counters from the shared planner
            database.planner.bind_registry(telemetry.registry, replace=True)
        return cls(
            tenant=tenant,
            database=database,
            telemetry=telemetry,
            events=events,
            store=store,
            monitor=monitor,
            predictor=predictor,
            optimizer=optimizer,
            executor=executor,
            tuners=tuners,
            organizer=organizer,
            features=list(features),
            cost_maintenance=cost_maintenance,
            injector=injector,
        )

    # ------------------------------------------------------------------
    # per-tenant observability (the fleet rollup reads these)

    @property
    def whatif_stats(self) -> WhatIfCacheStats:
        """This tenant's what-if cost-cache stats (never shared)."""
        return self.optimizer.cache_stats

    @property
    def plan_stats(self) -> PlanCacheStats:
        """This tenant's compiled-plan cache stats (never shared)."""
        return self.database.planner.cache_stats

    # ------------------------------------------------------------------
    # state transfer (fleet process workers)

    def transfer_snapshot(self) -> bytes:
        """Pickle this context for transfer out of a fleet worker.

        The arbiter hooks are detached (they close over process-local
        recorders; the next tick re-arms them) and the workload slots
        are nulled: the trace holds
        query-family sampler closures that cannot pickle, and the parent
        still owns its own copy — the workload is immutable, so nothing
        is lost. Everything else — database, clock, telemetry, events,
        predictor history, the guard ledger — crosses verbatim.
        """
        self.organizer.set_admission(None)
        self.organizer.set_commit_listener(None)
        trace, simulation, records = self.trace, self.simulation, self.records
        self.trace = None
        self.simulation = None
        self.records = []
        try:
            return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            self.trace = trace
            self.simulation = simulation
            self.records = records

    def absorb_transfer(self, blob: bytes) -> None:
        """Replace this (parent) context's state with a worker snapshot.

        The object identity is preserved — the fleet driver and arbiter
        keep their references — while every field is swapped for the
        worker's version. The workload slots are rebuilt from the
        parent's own trace (stripped for transfer), and the records list
        stays the parent's: the driver appends bin records parent-side
        as ticks complete, so the parent copy is the complete one. The
        arbiter hooks stay detached until the tenant's next tick re-arms
        them (:meth:`repro.fleet.parallel.TickRecorder.arm`).
        """
        from repro.core.simulation import ClosedLoopSimulation

        incoming: TenantContext = pickle.loads(blob)
        incoming.trace = self.trace
        incoming.simulation = ClosedLoopSimulation(
            incoming.database, self.trace, seed=self.simulation.seed
        )
        incoming.records = self.records
        self.__dict__.clear()
        self.__dict__.update(incoming.__dict__)
        # the unpickled driver still points at its clone context; repoint
        # it here or the clone (holding the live trace) rides along into
        # the next transfer_snapshot and breaks its pickling
        if self.driver is not None:
            self.driver.context = self

    def close(self) -> None:
        """Release what the context holds on the database (detach path)."""
        self.database.executor.bind_telemetry(None)
        self.telemetry.close()
