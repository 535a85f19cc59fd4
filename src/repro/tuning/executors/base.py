"""Tuning executor interface.

"The executor takes care of applying the choices that were selected
previously. There are different application strategies regarding order,
point in time and sequential or parallel application" (Section II-D.d).

Executors are **failure-aware**: an optional
:class:`~repro.faults.injector.FaultInjector` gates every application
attempt, transient failures are retried with capped exponential backoff
in *simulated* time (:class:`~repro.faults.recovery.RetryPolicy`), and a
permanent failure rolls the partial pass back through the inverse
actions collected so far, restoring the pre-pass configuration — and its
config epoch — bit-identically before a
:class:`~repro.errors.TuningAbortedError` propagates. See
docs/robustness.md.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.configuration.actions import Action
from repro.configuration.delta import ConfigurationDelta
from repro.dbms.database import Database
from repro.errors import ActionError, TuningAbortedError
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RetryPolicy
from repro.kpi.metrics import (
    ACTION_FAILURES,
    ACTION_RETRIES,
    ROLLBACK_ACTIONS,
    ROLLBACKS,
)
from repro.telemetry.facade import Telemetry
from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.spans import Tracer


@dataclass
class ApplicationReport:
    """What a tuning executor did and what it cost.

    Two distinct cost semantics coexist and must not be conflated:

    - **work** (:attr:`total_work_ms`) — the sum of per-action costs.
      This is what resource accounting stores: the database's
      ``total_reconfiguration_ms`` counter, ``ConfigurationRecord
      .reconfiguration_cost_ms``, and the ``reconfiguration_ms`` KPI all
      accumulate work, regardless of execution strategy. Work answers
      "how much reconfiguration effort was spent".
    - **elapsed** (:attr:`elapsed_ms`) — the simulated wall time the
      application occupied, i.e. ``finished_ms - started_ms``. The clock
      advances by elapsed time: per-action for sequential strategies,
      per-batch *maximum* for parallel ones. Elapsed answers "how long
      was the system reconfiguring".

    For :class:`~repro.tuning.executors.sequential.SequentialExecutor`
    the two coincide on a clean pass; for parallel strategies
    ``elapsed_ms ≤ total_work_ms`` while counters still record the full
    work. Failure handling extends the contract: retry backoff advances
    only the clock (:attr:`backoff_ms` is elapsed, not work), while a
    rollback advances both (:attr:`rollback_work_ms` is real effort and
    is *not* included in :attr:`total_work_ms`, which keeps its meaning
    of forward work).
    """

    strategy: str
    action_summaries: list[str] = field(default_factory=list)
    action_costs_ms: list[float] = field(default_factory=list)
    #: simulated wall time the application occupied (finished - started)
    elapsed_ms: float = 0.0
    started_ms: float = 0.0
    finished_ms: float = 0.0
    #: transient-failure retries spent across all actions
    retries: int = 0
    #: simulated wall time spent waiting between retries (clock only)
    backoff_ms: float = 0.0
    #: True when the pass failed permanently and was rolled back
    rolled_back: bool = False
    #: inverse actions applied during rollback
    rollback_actions: int = 0
    #: reconfiguration work spent rolling back (clock and counters)
    rollback_work_ms: float = 0.0
    #: description of the action whose failure aborted the pass
    failed_action: str | None = None
    #: inverse actions of the applied pass, in application order — kept on
    #: a *clean* pass so the commit guard can retain them for probation
    #: (see repro.guard); empty after a rollback consumed them
    inverse_actions: list[Action] = field(default_factory=list)

    @property
    def total_work_ms(self) -> float:
        """Sum of per-action forward costs (≥ elapsed for parallel
        strategies; excludes backoff waits and rollback work).

        This is the quantity recorded by counters and configuration
        records — see the class docstring for the work/elapsed split.
        """
        return sum(self.action_costs_ms)

    @property
    def action_count(self) -> int:
        return len(self.action_summaries)


class TuningExecutor(ABC):
    """Applies a configuration delta to the database.

    Subclasses implement :meth:`execute` on top of the shared failure
    machinery: :meth:`_apply_action` (inject → estimate → apply raw,
    retrying transient faults) and :meth:`_abort` (roll back the
    applied prefix, finalise the report, raise
    :class:`~repro.errors.TuningAbortedError`).
    """

    name: str = "executor"

    def __init__(
        self,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._injector = injector
        self._retry = retry if retry is not None else RetryPolicy()
        if telemetry is not None:
            self._tracer = telemetry.tracer
            registry = telemetry.registry
            # jitter key: concurrent tenants retrying one shared fault
            # must not back off in lockstep (see RetryPolicy.backoff_ms)
            self._retry_key = telemetry.tenant
        else:
            self._tracer = Tracer(enabled=False)
            registry = MetricRegistry()
            self._retry_key = ""
        self._retries_counter = registry.counter(ACTION_RETRIES)
        self._failures_counter = registry.counter(ACTION_FAILURES)
        self._rollbacks_counter = registry.counter(ROLLBACKS)
        self._rollback_actions_counter = registry.counter(ROLLBACK_ACTIONS)

    @property
    def injector(self) -> FaultInjector | None:
        return self._injector

    @abstractmethod
    def execute(self, delta: ConfigurationDelta, db: Database) -> ApplicationReport:
        """Apply all actions of ``delta``.

        Raises :class:`~repro.errors.TuningAbortedError` when an action
        fails permanently; by then every previously applied action of
        this call has been rolled back and the pre-call configuration
        (including its config epoch) is restored.
        """

    # ------------------------------------------------------------------
    # shared failure machinery

    @staticmethod
    def snapshot(db: Database) -> tuple[int, tuple[int, int]]:
        """Pre-pass state needed for an exact rollback: the config epoch
        and the buffer-pool fingerprint proving the restore was exact.

        Public because the commit guard captures the same snapshot
        before a pass it may later have to undo (see :meth:`rollback`).
        """
        pool = db.executor.buffer_pool
        return db.config_epoch, (pool.entry_count, pool.used_bytes)

    def _apply_action(
        self,
        action: Action,
        db: Database,
        report: ApplicationReport,
    ) -> tuple[float, list[Action]]:
        """Apply one action through the raw path, retrying transients.

        Returns ``(cost_ms, inverse_actions)``. Cost is the pre-apply
        estimate plus any injected latency spike — estimated *before*
        the mutation, since estimates are state-dependent. Each retry
        advances only the simulated clock by the policy backoff (waiting
        is elapsed time, not reconfiguration work) and rolls the
        injector dice again. Raises :class:`~repro.errors.ActionError`
        once retries are exhausted or the fault is permanent.
        """
        attempt = 0
        while True:
            try:
                extra_ms = (
                    self._injector.before_apply(action)
                    if self._injector is not None
                    else 0.0
                )
                cost = action.estimate_cost_ms(db) + extra_ms
                inverse = action.apply_raw(db)
                return cost, inverse
            except ActionError as exc:
                self._failures_counter.inc()
                if not exc.transient or attempt >= self._retry.max_retries:
                    raise
                backoff = self._retry.backoff_ms(attempt, self._retry_key)
                db.clock.advance(backoff)
                report.retries += 1
                report.backoff_ms += backoff
                self._retries_counter.inc()
                attempt += 1

    def _rollback(
        self,
        db: Database,
        inverse_stack: list[Action],
        saved: tuple[int, tuple[int, int]],
        report: ApplicationReport,
    ) -> None:
        """Undo the applied prefix via its inverse actions (LIFO).

        Rollback is real reconfiguration effort: the clock and the
        database counters both advance by the inverse-action work. The
        config epoch is restored to its pre-pass value when the
        buffer-pool fingerprint proves the restore was exact (raw
        actions only ever *remove* pool entries), so what-if cache
        entries for the pre-pass configuration stay valid.
        """
        saved_epoch, saved_pool = saved
        with self._tracer.span("rollback", actions=len(inverse_stack)):
            work = 0.0
            for inverse in reversed(inverse_stack):
                work += inverse.estimate_cost_ms(db)
                inverse.apply_raw(db)
            pool = db.executor.buffer_pool
            if (pool.entry_count, pool.used_bytes) == saved_pool:
                db.restore_config_epoch(saved_epoch)
            else:
                db.bump_config_epoch()
            db.clock.advance(work)
            if inverse_stack:
                db.counters.reconfigurations += len(inverse_stack)
                db.counters.total_reconfiguration_ms += work
        report.rolled_back = True
        report.rollback_actions = len(inverse_stack)
        report.rollback_work_ms = work
        self._rollbacks_counter.inc()
        if inverse_stack:
            self._rollback_actions_counter.inc(len(inverse_stack))

    def rollback(
        self,
        db: Database,
        inverse_actions: list[Action],
        saved: tuple[int, tuple[int, int]],
        strategy: str = "guard_rollback",
    ) -> ApplicationReport:
        """Public rollback entry point for *post-commit* rollbacks.

        The commit guard retains a clean pass's inverse actions and its
        pre-pass snapshot (see :meth:`_snapshot`); when the pass later
        turns out to regress runtime KPIs, the organizer undoes it here —
        through the exact machinery a failed application already uses,
        so clock/counter accounting and the config-epoch restore rules
        are identical. Returns the finalised report of the rollback.
        """
        report = ApplicationReport(strategy=strategy, started_ms=db.clock.now_ms)
        self._rollback(db, list(inverse_actions), saved, report)
        report.finished_ms = db.clock.now_ms
        report.elapsed_ms = report.finished_ms - report.started_ms
        return report

    def _abort(
        self,
        db: Database,
        inverse_stack: list[Action],
        saved: tuple[int, tuple[int, int]],
        report: ApplicationReport,
        action: Action,
        exc: Exception,
    ) -> None:
        """Roll back, finalise the report, and re-raise.

        Injected (and other) :class:`~repro.errors.ActionError` failures
        surface as :class:`~repro.errors.TuningAbortedError` carrying
        the report; any other exception — a genuine bug in an action —
        propagates unchanged after the rollback, so existing error
        contracts (e.g. ``KnobError``) are preserved while the database
        is still left consistent.
        """
        report.failed_action = action.describe()
        self._rollback(db, inverse_stack, saved, report)
        report.finished_ms = db.clock.now_ms
        report.elapsed_ms = report.finished_ms - report.started_ms
        if isinstance(exc, ActionError):
            raise TuningAbortedError(
                f"tuning pass aborted: {exc}", report=report, cause=exc
            ) from exc
        raise exc
