"""The fleet bin protocol and its two hosts.

A fleet bin runs one way, whatever the execution mode: ``execute_all``
runs every tenant's queries for the bin, then one ``tick(tenant, view)``
per tenant in hot-first order ticks the tenant's plugins against a
frozen :class:`~repro.fleet.arbiter.ArbiterView`, then the arbiter's
replay round validates priors through ``replay``. Everything
arbiter-visible — KPI samples, predictor history, guard state — mutates
only inside the tick, so the parent's canonical arbiter can rule on each
tick from the view and apply the recorded rulings back in tick order.

- :class:`TenantHost` serves the protocol for tenant contexts living in
  the current process. Serial fleets call it directly; inside each
  tick, :class:`TickRecorder` stands in for the fleet arbiter: it
  answers the organizer's admission hook from the shipped view via the
  same pure :func:`~repro.fleet.arbiter.rule_admission` and records
  every ruling and harvested commit chronologically.
- :class:`FleetWorkerPool` forks workers that each serve a
  :class:`TenantHost` over a round-robin slice of the tenants (fork
  start method only: contexts hold sampler closures that cannot
  pickle, so they must be inherited by memory image). The pool is
  supervised: a dead or wedged worker surfaces as
  :class:`WorkerCrashed`, and the fleet driver rolls back to its last
  restore point.

Each tick or replay reply carries a fresh
:class:`~repro.fleet.arbiter.TenantDigest` (the parent's digest cache is
how later admissions and replay gates see this tenant) plus the current
values of its moved counters for the incremental fleet rollup.
``snapshot`` pickles each context
(:meth:`~repro.fleet.context.TenantContext.transfer_snapshot`) for
restore points, checkpoints and the pool's final ``sync``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, field

from repro.core.simulation import BinRecord, PendingBin
from repro.fleet.arbiter import (
    AdmissionRuling,
    ArbiterView,
    FleetConfig,
    HarvestRecord,
    ReplayOutcome,
    TenantDigest,
    TuningPrior,
    attempt_replay,
    build_harvest,
    compute_digest,
    rule_admission,
)
from repro.fleet.context import TenantContext

#: Tag for a recorded admission ruling in a tick's action stream.
RULING = "ruling"
#: Tag for a recorded harvested commit in a tick's action stream.
HARVEST = "harvest"

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_INTERVAL_S = 0.2


class WorkerCrashed(RuntimeError):
    """A worker process died (or hung past the RPC deadline) mid-RPC.

    Carries enough for the fleet driver's supervision layer to recover:
    which worker, which tenants it owned, and why the pool gave up on
    it. Recovery rolls the fleet back to its last restore point and
    deterministically re-executes the interrupted bin — see
    :meth:`repro.fleet.driver.FleetDriver._recover_from_crash`.
    """

    def __init__(self, worker: int, tenants: tuple[str, ...], reason: str):
        super().__init__(
            f"fleet worker {worker} (tenants {', '.join(tenants) or '-'}) "
            f"crashed: {reason}"
        )
        self.worker = worker
        self.tenants = tenants
        self.reason = reason


@dataclass
class TickResult:
    """Everything the fleet driver needs from one tenant's tick."""

    tenant: str
    record: BinRecord
    #: the tenant's digest *after* this tick (refreshes the cache)
    digest: TenantDigest
    #: chronological arbiter actions the tick produced: ``(RULING,
    #: AdmissionRuling)`` and ``(HARVEST, HarvestRecord)`` tuples
    actions: list[tuple[str, AdmissionRuling | HarvestRecord]] = field(
        default_factory=list
    )
    #: current values of the counters that moved since the tenant's
    #: last drain (overlays the driver's incremental-rollup cache)
    counter_updates: dict[str, float] = field(default_factory=dict)


@dataclass
class ReplayResult:
    """Everything the fleet driver needs from one replay attempt."""

    outcome: ReplayOutcome | None
    #: the target's digest after the attempt (an applied replay changes
    #: its guard state and last-tuning stamp)
    digest: TenantDigest
    counter_updates: dict[str, float] = field(default_factory=dict)


class TickRecorder:
    """Stand-in for the fleet arbiter during one tenant's tick.

    Rules on admissions with :func:`rule_admission` over the tick's
    view and records every ruling and harvest in call order.
    Mid-tick arbiter mutations (a guard-escalation commit clears the
    tenant's defer count *before* the admission check in the same tick)
    are mirrored onto the local view copy so a later ruling in the same
    tick sees them.
    """

    def __init__(self, ctx: TenantContext, config: FleetConfig) -> None:
        self._ctx = ctx
        self._config = config
        self._view: ArbiterView | None = None
        self.actions: list[tuple[str, object]] = []

    def arm(self, view: ArbiterView) -> None:
        """Take ``view`` for the coming tick and hook into the organizer.

        Hooks are installed on every tick, not once: a snapshot or an
        absorbed transfer leaves the organizer without hooks, and this
        is the only place that puts them back.
        """
        self._view = view
        self.actions = []
        organizer = self._ctx.organizer
        organizer.set_admission(
            self.admission if self._config.arbitrate else None
        )
        organizer.set_commit_listener(self.commit)

    # the organizer's AdmissionHook signature
    def admission(self, organizer, decision) -> tuple[bool, str]:
        view = self._view
        ruling = rule_admission(
            view, compute_digest(self._ctx, self._config), decision.trigger
        )
        self.actions.append((RULING, ruling))
        # mirror apply_ruling on the local copy (view's dicts/sets are
        # private copies; the frozen dataclass shell never changes)
        if ruling.deferred:
            view.defers[ruling.tenant] = view.defers.get(ruling.tenant, 0) + 1
        if ruling.noted:
            view.last_admitted_ms[ruling.tenant] = ruling.now_ms
            view.admitted_this_bin.add(ruling.tenant)
            view.defers.pop(ruling.tenant, None)
        return ruling.admitted, ruling.reason

    # the organizer's CommitListener signature
    def commit(self, organizer, report) -> None:
        record = build_harvest(
            self._ctx, report, self._config.mix_window_bins
        )
        self.actions.append((HARVEST, record))
        # mirror ingest_harvest's only admission-visible effect
        self._view.defers.pop(self._ctx.tenant, None)


class TenantHost:
    """The fleet bin protocol over tenant contexts in this process.

    A serial fleet drives one directly over all its contexts; a worker
    of :class:`FleetWorkerPool` serves one over its slice. Counter
    changes are drained from each context's registry tracker (which
    travels with the registry through pickling), so the host holds no
    per-context state that a snapshot or restore could leave stale.
    """

    def __init__(
        self, contexts: list[TenantContext], config: FleetConfig
    ) -> None:
        self._config = config
        self._contexts = {ctx.tenant: ctx for ctx in contexts}
        self._recorders = {
            ctx.tenant: TickRecorder(ctx, config) for ctx in contexts
        }
        self._pending: dict[str, PendingBin] = {}
        for ctx in contexts:
            # open the tracker now, so every later move is drained
            ctx.telemetry.registry.delta_tracker()

    @staticmethod
    def _drain(ctx: TenantContext) -> dict[str, float]:
        return ctx.telemetry.registry.delta_tracker().drain()

    def execute_all(self, bin_index: int) -> None:
        """Run every hosted tenant's execute phase for ``bin_index``."""
        for tenant, ctx in self._contexts.items():
            self._pending[tenant] = ctx.simulation.execute_bin(bin_index)

    def tick(self, tenant: str, view: ArbiterView) -> TickResult:
        """Finish one tenant's bin, its admissions ruled from ``view``."""
        ctx = self._contexts[tenant]
        recorder = self._recorders[tenant]
        recorder.arm(view)
        record = ctx.simulation.finish_bin(self._pending.pop(tenant))
        return TickResult(
            tenant=tenant,
            record=record,
            digest=compute_digest(ctx, self._config),
            actions=recorder.actions,
            counter_updates=self._drain(ctx),
        )

    def replay(self, tenant: str, prior: TuningPrior) -> ReplayResult:
        """Validate (and maybe apply) ``prior`` on one hosted tenant."""
        ctx = self._contexts[tenant]
        outcome = attempt_replay(ctx, prior, self._config)
        return ReplayResult(
            outcome=outcome,
            digest=compute_digest(ctx, self._config),
            counter_updates=self._drain(ctx),
        )

    def snapshot(self) -> list[tuple[str, dict[str, float], bytes]]:
        """Drain and pickle every hosted tenant: (tenant, moved, blob)."""
        return [
            (tenant, self._drain(ctx), ctx.transfer_snapshot())
            for tenant, ctx in self._contexts.items()
        ]


#: the :class:`TenantHost` methods a worker serves over its pipe
_WORKER_COMMANDS = frozenset({"execute_all", "tick", "replay", "snapshot"})


def _worker_main(conn, contexts: list[TenantContext], config: FleetConfig):
    """One worker: serves a :class:`TenantHost` over its contexts."""
    try:
        host = TenantHost(contexts, config)
        while True:
            cmd, *args = conn.recv()
            if cmd == "stop":
                conn.send(("ok",))
                return
            if cmd not in _WORKER_COMMANDS:  # pragma: no cover - guard
                conn.send(("error", f"unknown command {cmd!r}"))
                return
            conn.send(("ok", getattr(host, cmd)(*args)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass


class FleetWorkerPool:
    """Forked workers, each serving a :class:`TenantHost` over a
    round-robin slice of the tenants.

    The pool is **supervised**: every parent-side wait on a worker is a
    poll-with-timeout loop interleaved with ``is_alive()`` checks, so a
    SIGKILL'd (or wedged) worker surfaces as a :class:`WorkerCrashed`
    within a poll interval instead of hanging the fleet forever on a
    blocking ``recv``. The pool itself does not recover — the fleet
    driver owns the restore point and the deterministic bin
    re-execution — it only detects, reports, and tears down.
    """

    def __init__(
        self,
        contexts: list[TenantContext],
        config: FleetConfig,
        workers: int | None = None,
        rpc_timeout_s: float = 120.0,
        stop_timeout_s: float = 5.0,
        registry=None,
        on_event=None,
    ) -> None:
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - platform-dependent
            raise RuntimeError(
                "parallel='process' needs the fork start method (tenant "
                "workloads hold closures that cannot pickle); use "
                "parallel='serial' on this platform"
            ) from exc
        if rpc_timeout_s <= 0:
            raise ValueError("rpc_timeout_s must be positive")
        self._rpc_timeout_s = rpc_timeout_s
        self._stop_timeout_s = stop_timeout_s
        self._on_event = on_event
        if registry is None:
            from repro.telemetry.metrics import MetricRegistry

            registry = MetricRegistry()
        from repro.kpi.metrics import WORKER_HARD_KILLS

        self._hard_kills = registry.counter(WORKER_HARD_KILLS)
        n_workers = max(
            1, min(workers or os.cpu_count() or 1, len(contexts))
        )
        assignments: list[list[TenantContext]] = [
            [] for _ in range(n_workers)
        ]
        self._owner: dict[str, int] = {}
        for i, ctx in enumerate(contexts):
            assignments[i % n_workers].append(ctx)
            self._owner[ctx.tenant] = i % n_workers
        self._tenants_of: list[tuple[str, ...]] = [
            tuple(ctx.tenant for ctx in owned) for owned in assignments
        ]
        self._conns = []
        self._procs = []
        for owned in assignments:
            parent_conn, child_conn = mp.Pipe()
            proc = mp.Process(
                target=_worker_main,
                args=(child_conn, owned, config),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    @property
    def n_workers(self) -> int:
        return len(self._procs)

    def tenants_of(self, worker: int) -> tuple[str, ...]:
        """Tenant ids owned by ``worker``."""
        return self._tenants_of[worker]

    def _emit(self, kind: str, **data) -> None:
        if self._on_event is not None:
            self._on_event({"kind": kind, **data})

    def _crashed(self, worker: int, reason: str) -> WorkerCrashed:
        return WorkerCrashed(worker, self._tenants_of[worker], reason)

    def _send(self, worker: int, msg) -> None:
        try:
            self._conns[worker].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise self._crashed(worker, f"send failed: {exc}") from exc

    def _recv(self, worker: int):
        """Wait for one reply, supervising the worker while waiting.

        Polls with a short interval instead of blocking: a dead worker
        raises :class:`WorkerCrashed` immediately (EOF or liveness
        check), and a worker silent past ``rpc_timeout_s`` is killed
        and reported the same way — a hung barrier becomes a recoverable
        fault instead of a deadlock.
        """
        conn = self._conns[worker]
        proc = self._procs[worker]
        deadline = time.monotonic() + self._rpc_timeout_s
        while True:
            try:
                ready = conn.poll(_POLL_INTERVAL_S)
            except (OSError, EOFError) as exc:
                raise self._crashed(worker, f"pipe failed: {exc}") from exc
            if ready:
                break
            if not proc.is_alive():
                # the worker may have replied and then died: poll once
                # more before declaring the reply lost
                if conn.poll(0):
                    break
                raise self._crashed(
                    worker, f"process died (exit code {proc.exitcode})"
                )
            if time.monotonic() >= deadline:
                proc.kill()
                proc.join(timeout=self._stop_timeout_s)
                raise self._crashed(
                    worker,
                    f"no reply within {self._rpc_timeout_s:.0f}s "
                    "(worker killed)",
                )
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise self._crashed(worker, f"died mid-reply: {exc}") from exc
        if reply[0] == "error":
            # the worker is alive but its command raised: a genuine bug,
            # not a process failure — surface it, don't retry the bin
            self.stop()
            raise RuntimeError(f"fleet worker failed:\n{reply[1]}")
        return reply[1] if len(reply) > 1 else None

    # ------------------------------------------------------------------
    # the per-bin protocol

    def execute_all(self, bin_index: int) -> None:
        """Run every tenant's execute phase for ``bin_index``, in parallel."""
        for worker in range(len(self._conns)):
            self._send(worker, ("execute_all", bin_index))
        for worker in range(len(self._conns)):
            self._recv(worker)

    def tick(self, tenant: str, view: ArbiterView) -> TickResult:
        """Tick one tenant against a frozen arbiter view (barrier order)."""
        worker = self._owner[tenant]
        self._send(worker, ("tick", tenant, view))
        return self._recv(worker)

    def replay(self, tenant: str, prior: TuningPrior) -> ReplayResult:
        """Validate (and maybe apply) a prior on its owning worker."""
        worker = self._owner[tenant]
        self._send(worker, ("replay", tenant, prior))
        return self._recv(worker)

    def sync(self) -> list[tuple[str, dict[str, float], bytes]]:
        """Drain and snapshot every tenant before the pool is stopped:
        (tenant, moved, pickle)."""
        return self._collect_snapshots()

    def snapshot(self) -> list[tuple[str, dict[str, float], bytes]]:
        """Like :meth:`sync`, but the pool stays usable for the next bin.

        This is how the driver refreshes its crash restore point (and
        writes periodic durable checkpoints) without tearing the pool
        down every interval.
        """
        return self._collect_snapshots()

    def _collect_snapshots(self) -> list[tuple[str, dict[str, float], bytes]]:
        for worker in range(len(self._conns)):
            self._send(worker, ("snapshot",))
        collected: list[tuple[str, dict[str, float], bytes]] = []
        for worker in range(len(self._conns)):
            collected.extend(self._recv(worker))
        return collected

    # ------------------------------------------------------------------
    # supervision and teardown

    @property
    def pids(self) -> tuple[int, ...]:
        """Worker process ids (for chaos injection and tests)."""
        return tuple(proc.pid for proc in self._procs)

    def kill_worker(self, worker: int) -> None:
        """SIGKILL one worker — the chaos harness's crash primitive.

        Nothing is cleaned up here on purpose: the next RPC touching the
        dead worker raises :class:`WorkerCrashed`, exercising exactly
        the detection path a real worker death would take.
        """
        os.kill(self._procs[worker].pid, signal.SIGKILL)

    def abandon(self) -> None:
        """Tear the pool down without the stop handshake.

        Crash recovery calls this: after a worker death the surviving
        workers hold post-crash partial state the fleet is about to
        discard, so there is nothing worth a graceful drain — terminate
        everyone, reap, and let the driver refork from its restore
        point.
        """
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for conn, proc in zip(self._conns, self._procs):
            conn.close()
            proc.join(timeout=self._stop_timeout_s)
            if proc.is_alive():  # pragma: no cover - kill fallback
                proc.kill()
                proc.join(timeout=self._stop_timeout_s)
        self._conns = []
        self._procs = []

    def stop(self) -> None:
        """Shut the workers down gracefully (idempotent).

        Workers that ignore the stop handshake or outlive the join
        timeout are hard-killed — and that is *reported*, not silent: a
        ``worker_hard_kill`` structured event fires per kill and the
        ``worker_hard_kills`` counter moves, so a wedged worker at
        shutdown is observable instead of vanishing into a terminate().
        """
        for worker, (conn, proc) in enumerate(
            zip(self._conns, self._procs)
        ):
            try:
                if proc.is_alive():
                    conn.send(("stop",))
                    # bounded ack wait: a wedged worker must not turn
                    # shutdown into a hang
                    deadline = time.monotonic() + self._stop_timeout_s
                    while not conn.poll(_POLL_INTERVAL_S):
                        if not proc.is_alive():
                            break
                        if time.monotonic() >= deadline:
                            break
            except (BrokenPipeError, EOFError, OSError):
                pass
            finally:
                conn.close()
        for worker, proc in enumerate(self._procs):
            proc.join(timeout=self._stop_timeout_s)
            if proc.is_alive():
                proc.terminate()
                self._hard_kills.inc()
                self._emit(
                    "worker_hard_kill",
                    worker=worker,
                    pid=proc.pid,
                    tenants=self._tenants_of[worker],
                    phase="shutdown",
                )
                proc.join(timeout=self._stop_timeout_s)
                if proc.is_alive():  # pragma: no cover - kill fallback
                    proc.kill()
                    proc.join(timeout=self._stop_timeout_s)
        self._conns = []
        self._procs = []


class HostReplayTransport:
    """Replay transport over a bin-protocol host plus the digest cache.

    Digest-only gates read the cache (every entry is post-tick fresh);
    the expensive validate-then-apply attempt goes to the host (an RPC
    to the owning worker in process mode), whose reply refreshes the
    cache — so a replay applied earlier in the round is visible to every
    later cap check and gate.
    """

    def __init__(self, host, digests, on_updates) -> None:
        self._host = host
        self._digests = digests
        #: callback(tenant, moved-counter values) into the parent's
        #: incremental rollup cache
        self._on_updates = on_updates

    def active_reconfigurations(self) -> int:
        return sum(1 for d in self._digests.values() if d.guard_active)

    def digest(self, tenant: str) -> TenantDigest:
        return self._digests[tenant]

    def attempt(self, prior: TuningPrior, tenant: str) -> ReplayOutcome | None:
        result = self._host.replay(tenant, prior)
        self._digests[tenant] = result.digest
        self._on_updates(tenant, result.counter_updates)
        return result.outcome
