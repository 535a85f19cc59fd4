"""The fleet driver: N tenant loops ticked concurrently in simulated time.

Each tenant is one complete :class:`~repro.fleet.context.TenantContext`
— its own database, clock, driver, trace, and closed-loop simulation —
and the fleet driver advances all of them bin by bin: within a fleet
bin, tenants run **hot-first** (descending scheduled query volume, the
order the arbiter's budget should favour), then the arbiter gets one
replay round to push freshly harvested priors onto look-alike tenants.
Simulated time advances per tenant on its own clock; "concurrently"
means lockstep per bin, which keeps runs deterministic and makes a
one-tenant fleet bit-identical to the legacy
``ClosedLoopSimulation(db, trace, seed).run()`` loop (the golden tests
in ``tests/fleet/`` hold this on multiple seeds).

**One bin protocol, two hosts.** Every bin runs the same barrier:
``execute_all`` runs each tenant's queries, then plugin ticks (where the
self-management loop runs) happen one tenant at a time in hot-first
order against a frozen arbiter view, and the rulings and harvests each
tick recorded are applied to the arbiter before the next tenant ticks;
a replay round closes the bin (:mod:`repro.fleet.parallel`).
``parallel="serial"`` (the default) runs the protocol on a
:class:`~repro.fleet.parallel.TenantHost` in this process;
``"process"`` runs it on forked workers, each serving a host over its
tenants, and merges their state back before reporting. Everything the
arbiter reads about a tenant changes only at tick time, so both modes
are **bit-identical** — same bin records, same event streams, same
commits (``tests/fleet/test_parallel.py`` holds this on multiple
seeds). Only process mode has crash supervision and a per-bin restore
point: only a forked worker can die.

Fleet rollups are **incremental**: every tenant registry and the fleet's
own registry get a :class:`~repro.telemetry.metrics.DeltaTracker`, and
counter changes accumulate into the report as bins complete —
:meth:`FleetDriver.report` never re-walks the registries.

:func:`build_fleet` is the canonical constructor: it lays out tenants
with :func:`~repro.fleet.workload.tenant_specs` (skewed volumes, shared
mix profiles), attaches one driver per tenant, and registers everything
with a :class:`~repro.fleet.arbiter.FleetOrganizer`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.driver import Driver, DriverConfig
from repro.core.events import EventKind
from repro.core.organizer import OrganizerConfig
from repro.core.simulation import BinRecord, ClosedLoopSimulation
from repro.core.triggers import (
    ForecastDriftTrigger,
    PeriodicTrigger,
    TuningTrigger,
)
from repro.cost.what_if import WhatIfCacheStats
from repro.faults.injector import FaultConfig, FaultInjector
from repro.fleet.arbiter import (
    FleetConfig,
    FleetOrganizer,
    ReplayOutcome,
    TenantDigest,
    compute_digest,
)
from repro.fleet.checkpoint import (
    CheckpointError,
    FleetCheckpoint,
    TenantState,
    blob_digest,
    checkpoint_path,
    encode_checkpoint,
    latest_checkpoint,
    load_checkpoint,
    write_checkpoint,
    write_encoded,
)
from repro.fleet.context import TenantContext
from repro.fleet.parallel import (
    HARVEST,
    FleetWorkerPool,
    HostReplayTransport,
    TenantHost,
    WorkerCrashed,
)
from repro.fleet.workload import (
    TenantSpec,
    build_tenant_suite,
    build_tenant_trace,
    tenant_specs,
)
from repro.kpi.metrics import (
    CHECKPOINT_BYTES,
    CHECKPOINT_CORRUPTIONS_DETECTED,
    CHECKPOINT_RESTORES,
    CHECKPOINT_WRITE_MS,
    CHECKPOINT_WRITES,
    FLEET_TENANT_QUARANTINES,
    WORKER_HARD_KILLS,
    WORKER_RESTARTS,
)
from repro.plan.cache import PlanCacheStats
from repro.telemetry.metrics import MetricRegistry

#: Execution modes accepted by :class:`FleetDriver`.
PARALLEL_MODES = ("serial", "process")


@dataclass
class TenantSummary:
    """One tenant's end-of-run accounting for the fleet report."""

    tenant: str
    profile: int
    volume_scale: float
    queries: int
    mean_query_ms: float
    #: mean over the final window (post-tuning steady state)
    final_mean_query_ms: float
    full_passes: int
    replays: int
    reconfigurations: int
    whatif: WhatIfCacheStats
    plan: PlanCacheStats
    events: int


@dataclass
class FleetReport:
    """Per-tenant summaries plus the explicit fleet rollup."""

    summaries: list[TenantSummary]
    #: aggregated what-if cache stats (explicit per-tenant sum)
    whatif: WhatIfCacheStats
    #: aggregated compiled-plan cache stats (explicit per-tenant sum)
    plan: PlanCacheStats
    #: counters summed across every tenant's registry
    counters: dict[str, float] = field(default_factory=dict)
    #: fleet-infrastructure counters (checkpoint writes/restores, worker
    #: restarts, quarantines) — kept in the driver's own registry, never
    #: in tenant registries, so checkpointed and plain runs report
    #: bit-identical tenant ``counters``
    fleet_counters: dict[str, float] = field(default_factory=dict)
    #: arbitration totals (priors, replays, full passes)
    arbitration: dict[str, object] = field(default_factory=dict)
    replay_outcomes: tuple[ReplayOutcome, ...] = ()
    #: the final-window size actually used for ``final_mean_query_ms``
    final_window_bins: int = 4
    #: True when fewer bins ran than the requested window, so the
    #: "final" means still include warm-up bins' worth of clamping
    final_window_clamped: bool = False

    @property
    def total_queries(self) -> int:
        return sum(s.queries for s in self.summaries)

    @property
    def total_full_passes(self) -> int:
        return sum(s.full_passes for s in self.summaries)

    @property
    def total_replays(self) -> int:
        return sum(s.replays for s in self.summaries)


class FleetDriver:
    """Ticks every tenant's closed loop, hot-first, bin by bin."""

    def __init__(
        self,
        contexts: list[TenantContext],
        config: FleetConfig | None = None,
        parallel: str | None = None,
        workers: int | None = None,
        checkpoint_dir: Path | str | None = None,
        checkpoint_every: int = 0,
        chaos: FaultConfig | FaultInjector | None = None,
        rpc_timeout_s: float = 120.0,
        max_crash_recoveries: int = 3,
    ) -> None:
        if not contexts:
            raise ValueError("a fleet needs at least one tenant context")
        for ctx in contexts:
            if ctx.trace is None or ctx.simulation is None:
                raise ValueError(
                    f"tenant {ctx.tenant!r} has no workload assigned "
                    "(trace/simulation are fleet slots; see build_fleet)"
                )
        mode = parallel or "serial"
        if mode not in PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel mode {mode!r} "
                f"(expected one of {PARALLEL_MODES})"
            )
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self._mode = mode
        self._workers = workers
        self._contexts = list(contexts)
        self._arbiter = FleetOrganizer(config)
        for ctx in self._contexts:
            self._arbiter.register(ctx)
        self._n_bins = min(len(ctx.trace.bins) for ctx in self._contexts)
        #: the only bin :meth:`run_bin` will accept next (re-entry guard)
        self._next_bin = 0
        #: the bin-protocol host over the contexts in this process: the
        #: serial fleet's host, and the snapshot source whenever no
        #: worker pool is running
        self._host = TenantHost(self._contexts, self._arbiter.config)
        #: the worker pool (process mode, between fork and sync)
        self._pool: FleetWorkerPool | None = None
        #: post-tick digests, the arbiter's view of every tenant
        self._digests = self._fresh_digests()
        # incremental rollup: a one-time baseline walk here, then only
        # dirty-counter drains — report() never re-walks the registries,
        # it sums this latest-value cache instead
        self._latest: dict[str, dict[str, float]] = {
            ctx.tenant: ctx.telemetry.registry.snapshot_counters()
            for ctx in self._contexts
        }
        # fault-tolerance machinery: counters and events live in the
        # fleet's OWN registry/log, never in tenant ones — a checkpointed
        # run's tenant streams stay bit-identical to a plain run's
        self._checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._checkpoint_every = checkpoint_every
        self._rpc_timeout_s = rpc_timeout_s
        self._max_crash_recoveries = max_crash_recoveries
        self._fleet_registry = MetricRegistry()
        self._fleet_events: list[dict] = []
        self._ckpt_writes = self._fleet_registry.counter(CHECKPOINT_WRITES)
        self._ckpt_bytes = self._fleet_registry.counter(CHECKPOINT_BYTES)
        self._ckpt_write_ms = self._fleet_registry.counter(
            CHECKPOINT_WRITE_MS
        )
        self._ckpt_restores = self._fleet_registry.counter(
            CHECKPOINT_RESTORES
        )
        self._ckpt_corruptions = self._fleet_registry.counter(
            CHECKPOINT_CORRUPTIONS_DETECTED
        )
        self._worker_restarts = self._fleet_registry.counter(WORKER_RESTARTS)
        self._quarantines = self._fleet_registry.counter(
            FLEET_TENANT_QUARANTINES
        )
        # incremented by the worker pool; created here so the fleet
        # counters have the same names in every mode
        self._fleet_registry.counter(WORKER_HARD_KILLS)
        if isinstance(chaos, FaultConfig):
            chaos = FaultInjector(chaos, registry=self._fleet_registry)
        self._chaos: FaultInjector | None = chaos
        # the fleet counters roll up like the tenant ones: one baseline
        # walk, then drains
        self._fleet_tracker = self._fleet_registry.delta_tracker()
        self._fleet_latest = self._fleet_registry.snapshot_counters()
        #: fleet bins whose chaos kill-or-not decision was already acted
        #: on — re-execution after a crash must not re-deliver the kill
        #: (the per-bin derived stream would name the same victim forever)
        self._chaos_decided: set[int] = set()
        #: the last bin-boundary state, for crash rollback (process mode)
        self._restore_point: FleetCheckpoint | None = None
        # write-behind periodic checkpoints: one in-flight writer thread
        self._ckpt_thread: threading.Thread | None = None
        self._ckpt_error: BaseException | None = None
        #: build_fleet kwargs when constructed through it (rides inside
        #: durable checkpoints so resume() can rebuild the layout)
        self._build_args: dict[str, object] | None = None

    @property
    def next_bin(self) -> int:
        """Index of the next unrun fleet bin (== bins run so far)."""
        return self._next_bin

    @property
    def tenants(self) -> tuple[TenantContext, ...]:
        return tuple(self._contexts)

    @property
    def arbiter(self) -> FleetOrganizer:
        return self._arbiter

    @property
    def n_bins(self) -> int:
        return self._n_bins

    @property
    def fleet_events(self) -> tuple[dict, ...]:
        """Fleet-infrastructure events (checkpoints, recoveries, kills)."""
        return tuple(self._fleet_events)

    @property
    def fleet_counters(self) -> dict[str, float]:
        """Current values of the fleet-infrastructure counters."""
        self._fleet_latest.update(self._fleet_tracker.drain())
        return dict(self._fleet_latest)

    @property
    def checkpoint_dir(self) -> Path | None:
        return self._checkpoint_dir

    def tenant(self, tenant_id: str) -> TenantContext:
        for ctx in self._contexts:
            if ctx.tenant == tenant_id:
                return ctx
        raise KeyError(tenant_id)

    # ------------------------------------------------------------------
    # the fleet loop

    def _bin_order(self, index: int) -> list[TenantContext]:
        """Hot-first: descending scheduled volume, stable by tenant id."""
        return sorted(
            self._contexts,
            key=lambda ctx: (-ctx.trace.bins[index].total, ctx.tenant),
        )

    def run_bin(self, index: int) -> dict[str, BinRecord]:
        """Advance every tenant one bin, then run one replay round.

        Bins must run in order, each exactly once: re-running a bin
        would duplicate records and replay simulated time, so anything
        but the next unrun bin (see :attr:`next_bin`) is an error.
        """
        if index != self._next_bin:
            raise ValueError(
                f"fleet bins run in order, each exactly once: expected "
                f"bin {self._next_bin}, got {index}"
            )
        if index >= self._n_bins:
            raise ValueError(
                f"bin {index} is out of range (fleet has {self._n_bins})"
            )
        if self._mode == "process":
            records = self._run_bin_supervised(index)
        else:
            records = self._run_bin_attempt(index, self._host)
        self._next_bin = index + 1
        if (
            self._checkpoint_dir is not None
            and self._checkpoint_every > 0
            and (index + 1) % self._checkpoint_every == 0
        ):
            self._checkpoint_periodic()
        return records

    def _run_bin_attempt(self, index: int, host) -> dict[str, BinRecord]:
        """One attempt at one bin through the host protocol.

        The canonical arbiter stays in this process: each tick gets a
        frozen view, and the rulings and harvests the tick recorded are
        applied back — in tick order — before the next tenant ticks, so
        the arbiter state evolves exactly as if it had been consulted
        live.
        """
        self._arbiter.begin_bin()
        host.execute_all(index)
        records: dict[str, BinRecord] = {}
        for ctx in self._bin_order(index):
            result = host.tick(ctx.tenant, self._arbiter.view(self._digests))
            for kind, payload in result.actions:
                if kind == HARVEST:
                    self._arbiter.ingest_harvest(payload)
                else:
                    self._arbiter.apply_ruling(payload)
            self._digests[ctx.tenant] = result.digest
            self._accumulate(ctx.tenant, result.counter_updates)
            ctx.records.append(result.record)
            records[ctx.tenant] = result.record
        self._arbiter.replay_round(
            HostReplayTransport(host, self._digests, self._accumulate)
        )
        return records

    def _run_bin_supervised(self, index: int) -> dict[str, BinRecord]:
        """Run bin ``index`` on the worker pool, surviving worker death.

        Crash recovery is transactional at bin granularity: every bin
        attempt starts from a restore point captured at the previous bin
        boundary, so when a worker dies (or hangs) mid-bin the whole
        fleet rolls back to that boundary, a fresh pool is forked from
        the restored parent contexts, and the interrupted bin (plus any
        bins completed after the restore point, when the snapshot RPC
        itself was what crashed) re-executes deterministically — the
        golden tests hold that a SIGKILL'd worker leaves bin records,
        events, and final configurations bit-identical to an undisturbed
        run.
        """
        recoveries = 0
        while True:
            try:
                pool = self._ensure_pool()
                # catch-up after a rollback to an older restore point
                while self._next_bin < index:
                    self._supervised_attempt(self._next_bin, pool)
                    self._next_bin += 1
                return self._supervised_attempt(index, pool)
            except WorkerCrashed as crash:
                recoveries += 1
                if recoveries > self._max_crash_recoveries:
                    raise
                self._recover_from_crash(crash)

    def _supervised_attempt(
        self, index: int, pool: FleetWorkerPool
    ) -> dict[str, BinRecord]:
        """One bin on the pool, then a fresh restore point.

        The restore point is re-captured from a live worker snapshot and
        stamped with the next bin (``run_bin`` has not advanced
        ``next_bin`` yet), so a crash only ever rolls back the bin in
        flight.
        """
        self._maybe_chaos_kill(index, pool)
        records = self._run_bin_attempt(index, pool)
        self._restore_point = replace(
            self._capture_checkpoint(), next_bin=index + 1
        )
        return records

    def _maybe_chaos_kill(self, index: int, pool) -> None:
        """Deliver the chaos schedule's worker kill for this bin, once.

        The schedule is a pure function of ``(seed, bin)``, so asking
        again during re-execution names the same victim; the decided-set
        makes the kill fire exactly once per bin or recovery would loop
        forever on the same crash.
        """
        if self._chaos is None or index in self._chaos_decided:
            return
        self._chaos_decided.add(index)
        victim = self._chaos.worker_crash(index, pool.n_workers)
        if victim is not None:
            self._fleet_events.append(
                {
                    "kind": "chaos_worker_kill",
                    "bin": index,
                    "worker": victim,
                    "tenants": pool.tenants_of(victim),
                }
            )
            pool.kill_worker(victim)

    def run(self, stop: int | None = None) -> FleetReport:
        """Run the fleet to bin ``stop`` and return the rollup report.

        Resumable: bins already run (via :meth:`run_bin` or an earlier
        ``run``) are never re-run, so calling ``run()`` twice reports
        the same single pass instead of doubling every record.
        ``stop=0`` runs nothing (an empty report); negative values are
        an error.
        """
        if stop is None:
            last = self._n_bins
        elif stop < 0:
            raise ValueError(f"stop must be >= 0, got {stop}")
        else:
            last = min(stop, self._n_bins)
        for index in range(self._next_bin, last):
            self.run_bin(index)
        return self.report()

    # ------------------------------------------------------------------
    # process-mode pool lifecycle

    def _ensure_pool(self) -> FleetWorkerPool:
        """Start (or return) the worker pool; parent state must be current.

        A fresh fork also captures the crash restore point *before*
        forking — at that moment the parent contexts are exact copies of
        what the workers start from, so a crash in the very first bin of
        the pool's life can roll back too.
        """
        if self._pool is None:
            self._restore_point = self._capture_checkpoint()
            self._pool = FleetWorkerPool(
                self._contexts,
                self._arbiter.config,
                workers=self._workers,
                rpc_timeout_s=self._rpc_timeout_s,
                registry=self._fleet_registry,
                on_event=self._fleet_events.append,
            )
        return self._pool

    def sync_workers(self) -> None:
        """Merge worker state back into the parent contexts (no-op when
        no pool is running).

        After this the parent contexts carry everything the workers did
        — clocks, events, guard ledgers, caches — and the pool is gone;
        the next process-mode bin forks a fresh one from the merged
        state. Called automatically by :meth:`report` and
        :meth:`labelled_metrics`. A worker that dies during the final
        sync is recovered like a mid-bin crash: roll back to the restore
        point (the last bin boundary — no bins are lost, sync happens at
        boundaries) and merge from the restored contexts instead.
        """
        recoveries = 0
        while self._pool is not None:
            pool, self._pool = self._pool, None
            try:
                collected = pool.sync()
            except WorkerCrashed as crash:
                recoveries += 1
                if recoveries > self._max_crash_recoveries:
                    raise
                self._pool = pool  # _recover_from_crash abandons it
                self._recover_from_crash(crash)
                # restore rolled everything back to the bin boundary the
                # sync ran at; the contexts already carry that state, so
                # there is nothing left to merge
                if self._next_bin == self._restore_point.next_bin:
                    return
                continue  # pragma: no cover - stale restore point
            try:
                for tenant, moved, blob in collected:
                    self._accumulate(tenant, moved)
                    self.tenant(tenant).absorb_transfer(blob)
            finally:
                pool.stop()

    # ------------------------------------------------------------------
    # fault tolerance: capture, durable checkpoints, restore, recovery

    def _capture_checkpoint(self) -> FleetCheckpoint:
        """Bundle the fleet's current bin-boundary state.

        The tenant blobs come from whichever host holds the live
        contexts: the worker pool while one runs (the workers keep
        running), the in-process host otherwise. Either way the run
        continues bit-identically to one that never checkpointed.
        """
        host = self._pool if self._pool is not None else self._host
        blob_map: dict[str, bytes] = {}
        for tenant, moved, blob in host.snapshot():
            self._accumulate(tenant, moved)
            blob_map[tenant] = blob
        tenants = [
            TenantState(
                tenant=ctx.tenant,
                blob=blob_map[ctx.tenant],
                blob_sha256=blob_digest(blob_map[ctx.tenant]),
                records=list(ctx.records),
                counters=dict(self._latest[ctx.tenant]),
            )
            for ctx in self._contexts
        ]
        return FleetCheckpoint(
            next_bin=self._next_bin,
            config=self._arbiter.config,
            arbiter=self._arbiter.state_snapshot(),
            tenants=tenants,
            build_args=(
                dict(self._build_args)
                if self._build_args is not None
                else None
            ),
        )

    def checkpoint(self, directory: Path | str | None = None) -> Path:
        """Write a durable checkpoint of the current bin boundary.

        Uses ``directory`` (or the driver's ``checkpoint_dir``). When a
        chaos injector with ``checkpoint_corruption_rate`` is attached,
        the *written copy* of one scheduled tenant blob is damaged — the
        in-memory restore point and the live run stay pristine; only a
        later restore from disk sees (and detects) the corruption.
        """
        target = Path(directory) if directory is not None else self._checkpoint_dir
        if target is None:
            raise CheckpointError(
                "no checkpoint directory (pass one, or construct the "
                "fleet with checkpoint_dir=...)"
            )
        self._ckpt_join()
        started = time.perf_counter()
        written = self._prepare_checkpoint()
        path = write_checkpoint(written, target)
        self._ckpt_writes.inc()
        self._ckpt_bytes.inc(path.stat().st_size)
        self._ckpt_write_ms.inc((time.perf_counter() - started) * 1000.0)
        self._fleet_events.append(
            {
                "kind": "checkpoint",
                "epoch": written.next_bin,
                "path": str(path),
            }
        )
        return path

    def _prepare_checkpoint(self) -> FleetCheckpoint:
        """Capture (or reuse) the bundle and apply scheduled chaos damage."""
        if (
            self._pool is not None
            and self._restore_point is not None
            and self._restore_point.next_bin == self._next_bin
        ):
            # the restore point was just refreshed at this exact
            # boundary: reuse it instead of a second worker snapshot —
            # in a supervised fleet the capture is a sunk supervision
            # cost, so a durable checkpoint only pays for the write
            ckpt = self._restore_point
        else:
            ckpt = self._capture_checkpoint()
        if self._chaos is not None:
            victim = self._chaos.checkpoint_corruption(
                ckpt.next_bin, len(ckpt.tenants)
            )
            if victim is not None:
                damaged = replace(
                    ckpt.tenants[victim],
                    blob=self._chaos.corrupt_blob(
                        ckpt.tenants[victim].blob, ckpt.next_bin
                    ),
                )
                tenants = list(ckpt.tenants)
                tenants[victim] = damaged
                self._fleet_events.append(
                    {
                        "kind": "chaos_checkpoint_corruption",
                        "epoch": ckpt.next_bin,
                        "tenant": damaged.tenant,
                    }
                )
                return replace(ckpt, tenants=tenants)
        return ckpt

    def _checkpoint_periodic(self) -> None:
        """Write-behind durable checkpoint at a bin boundary.

        The bundle is captured (or reused from the crash restore point)
        and encoded to immutable byte segments synchronously; the disk
        work — ``write``, ``fsync``, atomic rename — runs on a single
        in-flight writer thread whose syscalls release the GIL, so the
        run only pays for serialization, not for the disk. The previous
        write is joined first (epochs land in order), and a failed
        background write surfaces as :class:`CheckpointError` at the
        next join point (the next checkpoint, a restore, or the final
        report) rather than being dropped.
        """
        target = self._checkpoint_dir
        self._ckpt_join()
        started = time.perf_counter()
        written = self._prepare_checkpoint()
        segments = encode_checkpoint(written)
        path = checkpoint_path(target, written.next_bin)

        def _write() -> None:
            try:
                write_encoded(segments, target, written.next_bin)
                self._ckpt_bytes.inc(path.stat().st_size)
            except BaseException as exc:  # surfaced at the next join
                self._ckpt_error = exc

        self._ckpt_thread = threading.Thread(
            target=_write, name="fleet-ckpt-writer", daemon=True
        )
        self._ckpt_thread.start()
        self._ckpt_writes.inc()
        self._ckpt_write_ms.inc((time.perf_counter() - started) * 1000.0)
        self._fleet_events.append(
            {
                "kind": "checkpoint",
                "epoch": written.next_bin,
                "path": str(path),
            }
        )

    def _ckpt_join(self) -> None:
        """Wait out the in-flight background checkpoint write, if any."""
        thread = self._ckpt_thread
        if thread is None:
            return
        thread.join()
        self._ckpt_thread = None
        error, self._ckpt_error = self._ckpt_error, None
        if error is not None:
            raise CheckpointError(
                f"background checkpoint write failed: {error}"
            ) from error

    def restore(
        self,
        source: FleetCheckpoint | Path | str,
        *,
        max_restore_attempts: int = 2,
    ) -> None:
        """Adopt the state of a checkpoint (object, file, or directory).

        A directory picks its newest loadable checkpoint (file-level
        corruption falls back to older epochs). Per-tenant blobs are
        verified here: a tenant whose blob fails its checksum — or fails
        to unpickle ``max_restore_attempts`` times — is force-
        quarantined (RECOVERY event, arbiter exclusion) while the rest
        of the fleet restores normally.
        """
        self._ckpt_join()  # never read epochs under an in-flight write
        if isinstance(source, (str, Path)):
            path = Path(source)
            if path.is_dir():
                ckpt, _ = latest_checkpoint(path)
            else:
                ckpt = load_checkpoint(path)
        else:
            ckpt = source
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.abandon()
        self._restore_in_place(
            ckpt,
            max_restore_attempts=max_restore_attempts,
            quarantine_failures=True,
        )
        self._restore_point = ckpt
        self._ckpt_restores.inc()
        self._fleet_events.append(
            {"kind": "restore", "epoch": ckpt.next_bin}
        )

    def _recover_from_crash(self, crash) -> None:
        """Roll back to the restore point after a worker death.

        Abandon the surviving workers (their state is post-crash and
        about to be discarded), restore every tenant and the arbiter to
        the last bin boundary, and let the caller refork and re-execute.
        A tenant that cannot restore even here (possible when the
        restore point came from a chaos-damaged disk checkpoint) is
        quarantined like any other restore failure — the fleet degrades
        rather than dies.
        """
        self._worker_restarts.inc()
        self._fleet_events.append(
            {
                "kind": "worker_crash_recovery",
                "worker": crash.worker,
                "tenants": crash.tenants,
                "reason": crash.reason,
                "resume_bin": (
                    self._restore_point.next_bin
                    if self._restore_point is not None
                    else None
                ),
            }
        )
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.abandon()
        if self._restore_point is None:  # pragma: no cover - invariant
            raise RuntimeError(
                "worker crashed before any restore point was captured"
            ) from crash
        self._restore_in_place(
            self._restore_point,
            max_restore_attempts=1,
            quarantine_failures=True,
        )

    def _restore_in_place(
        self,
        ckpt: FleetCheckpoint,
        *,
        max_restore_attempts: int,
        quarantine_failures: bool,
    ) -> None:
        """Reset the fleet to ``ckpt``'s bin boundary, tenant by tenant."""
        self._arbiter.restore_state(ckpt.arbiter)
        for ctx in self._contexts:
            try:
                state = ckpt.state_for(ctx.tenant)
            except KeyError:
                raise CheckpointError(
                    f"checkpoint has no state for tenant {ctx.tenant!r} "
                    "(was it taken from a different fleet layout?)"
                ) from None
            failure = None
            for _ in range(max(1, max_restore_attempts)):
                if not state.verify():
                    self._ckpt_corruptions.inc()
                    failure = "snapshot blob failed its checksum"
                    break  # damaged bytes: retrying cannot help
                try:
                    ctx.absorb_transfer(state.blob)
                    failure = None
                    break
                except Exception as exc:
                    failure = f"snapshot failed to apply: {exc}"
            if failure is not None:
                if not quarantine_failures:
                    raise CheckpointError(
                        f"tenant {ctx.tenant} failed to restore: {failure}"
                    )
                self._quarantine_tenant(ctx, failure)
            ctx.records[:] = list(state.records)
            # verbatim, not rebuilt: the cache's insertion order is part
            # of the rollup's float-sum identity
            self._latest[ctx.tenant] = dict(state.counters)
        self._next_bin = ckpt.next_bin
        self._digests = self._fresh_digests()

    def _quarantine_tenant(self, ctx: TenantContext, reason: str) -> None:
        """Degrade gracefully: exclude one unrestorable tenant.

        The tenant keeps whatever state it has (stale, or fresh-built on
        resume) and keeps running, but the arbiter stops admitting its
        passes, harvesting its priors, and replaying onto it — a
        corrupted snapshot must not poison fleet decisions.
        """
        self._arbiter.quarantine_tenant(ctx.tenant)
        self._quarantines.inc()
        ctx.events.log(
            ctx.database.clock.now_ms,
            EventKind.RECOVERY,
            f"tenant force-quarantined: {reason}",
        )
        self._fleet_events.append(
            {
                "kind": "tenant_quarantine",
                "tenant": ctx.tenant,
                "reason": reason,
            }
        )

    @classmethod
    def resume(
        cls,
        source: FleetCheckpoint | Path | str,
        *,
        parallel: str | None = None,
        workers: int | None = None,
        checkpoint_dir: Path | str | None = None,
        checkpoint_every: int = 0,
        chaos: FaultConfig | FaultInjector | None = None,
        **build_overrides,
    ) -> "FleetDriver":
        """Rebuild a fleet from a durable checkpoint and adopt its state.

        ``source`` is a checkpoint object, a checkpoint file, or a
        checkpoint directory (newest loadable epoch wins). The workload
        layout is rebuilt from the ``build_args`` recorded by
        :func:`build_fleet`; the continuation is bit-identical to the
        original run never having stopped (held by
        ``tests/fleet/test_checkpoint.py`` across seeds and modes).
        """
        if isinstance(source, (str, Path)):
            path = Path(source)
            if path.is_dir():
                ckpt, _ = latest_checkpoint(path)
            else:
                ckpt = load_checkpoint(path)
        else:
            ckpt = source
        if ckpt.build_args is None:
            raise CheckpointError(
                "checkpoint carries no build_fleet arguments (the fleet "
                "was hand-assembled); rebuild it the same way and call "
                "restore() instead"
            )
        build_args = dict(ckpt.build_args)
        build_args.update(build_overrides)
        build_args.setdefault("config", ckpt.config)
        fleet = build_fleet(
            parallel=parallel,
            workers=workers,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            chaos=chaos,
            **build_args,
        )
        fleet.restore(ckpt)
        return fleet

    # ------------------------------------------------------------------
    # incremental rollup plumbing

    def _fresh_digests(self) -> dict[str, TenantDigest]:
        """Digests computed from the contexts in this process."""
        return {
            ctx.tenant: compute_digest(ctx, self._arbiter.config)
            for ctx in self._contexts
        }

    def _accumulate(self, tenant: str, moved: dict[str, float]) -> None:
        """Overlay one drain (current values of moved counters)."""
        self._latest[tenant].update(moved)

    def _rollup_counters(self) -> dict[str, float]:
        """Sum the latest-value cache — bit-equal to a registry walk.

        Per-tenant addends and their order match ``rollup_counters``
        over the live registries exactly, so the incremental path has
        no float drift relative to the full walk.
        """
        totals: dict[str, float] = {}
        for ctx in self._contexts:
            for name, value in self._latest[ctx.tenant].items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    # ------------------------------------------------------------------
    # reporting

    def report(self, final_window_bins: int = 4) -> FleetReport:
        """Roll the fleet up; ``final_window_bins`` is the steady-state
        window for ``final_mean_query_ms``.

        When fewer bins have run than the requested window, the window
        is clamped to the bins that exist and the report says so
        (``final_window_clamped``) — a 2-bin run must not quietly sell
        its warm-up bins as a "final" steady state.
        """
        if final_window_bins < 1:
            raise ValueError(
                f"final_window_bins must be >= 1, got {final_window_bins}"
            )
        self._ckpt_join()  # the run is only "done" once durably written
        self.sync_workers()
        window = min(final_window_bins, self._next_bin)
        summaries: list[TenantSummary] = []
        for ctx in self._contexts:
            records: list[BinRecord] = list(ctx.records)
            queries = sum(r.queries_executed for r in records)
            workload = sum(r.workload_ms for r in records)
            tail = records[-window:] if window > 0 else []
            tail_queries = sum(r.queries_executed for r in tail)
            tail_workload = sum(r.workload_ms for r in tail)
            summaries.append(
                TenantSummary(
                    tenant=ctx.tenant,
                    profile=ctx.profile,
                    volume_scale=ctx.volume_scale,
                    queries=queries,
                    mean_query_ms=workload / queries if queries else 0.0,
                    final_mean_query_ms=(
                        tail_workload / tail_queries if tail_queries else 0.0
                    ),
                    full_passes=self._arbiter.full_passes(ctx.tenant),
                    replays=self._arbiter.replays(ctx.tenant),
                    reconfigurations=ctx.database.counters.reconfigurations,
                    whatif=ctx.whatif_stats,
                    plan=ctx.plan_stats,
                    events=len(ctx.events),
                )
            )
        return FleetReport(
            summaries=summaries,
            whatif=WhatIfCacheStats.aggregate(s.whatif for s in summaries),
            plan=PlanCacheStats.aggregate(s.plan for s in summaries),
            # the incremental rollup (baseline + per-bin drains); the
            # equivalence with a full registry walk is held by
            # tests/fleet/test_stats.py
            counters=self._rollup_counters(),
            fleet_counters=self.fleet_counters,
            arbitration=self._arbiter.summary(),
            replay_outcomes=self._arbiter.outcomes,
            final_window_bins=window,
            final_window_clamped=window < final_window_bins,
        )

    def labelled_metrics(self) -> dict[str, float]:
        """Every tenant's metrics in one flat ``tenant::name`` mapping."""
        self.sync_workers()
        merged: dict[str, float] = {}
        for ctx in self._contexts:
            merged.update(
                ctx.telemetry.registry.snapshot_labelled(ctx.tenant)
            )
        return merged


# ----------------------------------------------------------------------
# construction

#: Defaults mirrored by the golden tests' legacy arm — change together.
DEFAULT_TUNE_EVERY_BINS = 6
DEFAULT_INDEX_BUDGET_MIB = 64.0


def default_tenant_driver(
    spec: TenantSpec,
    features=None,
    triggers: list[TuningTrigger] | None = None,
    tune_every_bins: int = DEFAULT_TUNE_EVERY_BINS,
    index_budget_mib: float = DEFAULT_INDEX_BUDGET_MIB,
    organizer: OrganizerConfig | None = None,
    policy=None,
) -> Driver:
    """The standard per-tenant driver, labelled with the tenant id.

    Mirrors the single-tenant CLI setup (periodic + forecast-drift
    triggers, index memory budget, 4-bin horizon); the golden tests
    construct the legacy arm with exactly these parameters. ``policy``
    (a :class:`~repro.policy.config.PolicyConfig`) switches the tenant's
    organizer to goal-driven planning; its passes are fleet-arbitrated
    like any other non-urgent trigger.
    """
    from repro.configuration import INDEX_MEMORY
    from repro.configuration.constraints import ConstraintSet, ResourceBudget
    from repro.tuning import standard_features
    from repro.util.units import MIB

    return Driver(
        list(features) if features else standard_features(),
        constraints=ConstraintSet(
            [ResourceBudget(INDEX_MEMORY, index_budget_mib * MIB)]
        ),
        triggers=(
            list(triggers)
            if triggers is not None
            else [
                PeriodicTrigger(every_ms=tune_every_bins * 60_000),
                ForecastDriftTrigger(relative_threshold=0.25),
            ]
        ),
        config=DriverConfig(
            tenant=spec.tenant_id,
            organizer=organizer
            or OrganizerConfig(
                horizon_bins=4, min_history_bins=4, cooldown_ms=3 * 60_000
            ),
            policy=policy,
        ),
    )


def build_fleet(
    n_tenants: int,
    skew: float = 0.8,
    seed: int = 7,
    bins: int = 24,
    rows: int = 20_000,
    suite: str = "retail",
    config: FleetConfig | None = None,
    lookalike_fraction: float = 0.75,
    tune_every_bins: int = DEFAULT_TUNE_EVERY_BINS,
    index_budget_mib: float = DEFAULT_INDEX_BUDGET_MIB,
    organizer: OrganizerConfig | None = None,
    specs: list[TenantSpec] | None = None,
    parallel: str | None = None,
    workers: int | None = None,
    policy=None,
    checkpoint_dir: Path | str | None = None,
    checkpoint_every: int = 0,
    chaos: FaultConfig | FaultInjector | None = None,
    rpc_timeout_s: float = 120.0,
    max_crash_recoveries: int = 3,
) -> FleetDriver:
    """Build a ready-to-run fleet of ``n_tenants`` skewed tenants.

    Tenant 0 is the hot tenant (volume scale 1.0, profile 0, data and
    trace seeds equal to ``seed``); volumes fall off as
    ``(i + 1) ** -skew``. Each tenant gets its own database, driver (and
    therefore TenantContext), trace, and simulation; the fleet driver
    registers them all with one arbiter built from ``config``.

    Pass explicit ``specs`` to override the layout entirely (e.g. two
    digital-twin tenants sharing every seed — the replay identity tests).
    """
    custom_layout = (
        specs is not None or organizer is not None or policy is not None
    )
    if specs is None:
        specs = tenant_specs(
            n_tenants,
            skew=skew,
            seed=seed,
            lookalike_fraction=lookalike_fraction,
        )
    contexts: list[TenantContext] = []
    for spec in specs:
        tenant_suite = build_tenant_suite(spec, suite=suite, rows=rows)
        trace = build_tenant_trace(spec, tenant_suite, bins)
        db = tenant_suite.database
        driver = default_tenant_driver(
            spec,
            tune_every_bins=tune_every_bins,
            index_budget_mib=index_budget_mib,
            organizer=organizer,
            policy=policy,
        )
        db.plugin_host.attach(driver)
        ctx = driver.context
        ctx.driver = driver
        ctx.trace = trace
        ctx.simulation = ClosedLoopSimulation(db, trace, seed=spec.seed)
        ctx.profile = spec.profile
        ctx.volume_scale = spec.volume_scale
        ctx.seed = spec.seed
        contexts.append(ctx)
    fleet = FleetDriver(
        contexts,
        config=config,
        parallel=parallel,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        chaos=chaos,
        rpc_timeout_s=rpc_timeout_s,
        max_crash_recoveries=max_crash_recoveries,
    )
    if not custom_layout:
        # the layout is fully derivable from these kwargs, so durable
        # checkpoints can carry them and FleetDriver.resume can rebuild
        # the same fleet without the caller restating anything
        fleet._build_args = {
            "n_tenants": n_tenants,
            "skew": skew,
            "seed": seed,
            "bins": bins,
            "rows": rows,
            "suite": suite,
            "lookalike_fraction": lookalike_fraction,
            "tune_every_bins": tune_every_bins,
            "index_budget_mib": index_budget_mib,
        }
    return fleet
