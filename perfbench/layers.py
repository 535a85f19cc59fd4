"""Per-layer host-time attribution for the traced benchmark run.

The tracer replaces public functions of the package's layers with timing
wrappers for the length of one traced replay and puts the originals back
afterwards, so untraced runs carry no tracing cost and ``src/`` is never
edited. Each wrapped call is a span: its inclusive time, plus the time of
the wrapped calls nested inside it, gives its self time. Self times of all
spans plus the unattributed remainder add up to the replay's run time.

In the fleet workload the wrappers only see the parent process: worker
processes inherit them at fork, but their timings stay in the workers, so
the fleet spans time the parent side of each RPC (which includes the
worker's work on it).
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager

#: (span, module, owner, attribute). ``owner`` is a class name, or None
#: for a module-level function. Spans named after ``src/repro`` modules.
TARGETS = (
    ("dbms.execute", "repro.dbms.database", "Database", "execute"),
    # the executor imported run_plan by name, so patch its reference
    ("dbms.run_plan", "repro.dbms.executor", None, "run_plan"),
    ("plan.compile", "repro.plan.planner", "QueryPlanner", "compile"),
    ("dbms.index_build", "repro.dbms.index", "SortedCompositeIndex", "build"),
    ("dbms.set_encoding", "repro.dbms.chunk", "Chunk", "set_encoding"),
    ("cost.whatif.price", "repro.cost.what_if", "WhatIfOptimizer", "query_cost_ms"),
    ("cost.whatif.price", "repro.cost.what_if", "WhatIfOptimizer", "batch_query_costs"),
    ("tuning.propose", "repro.tuning.tuner", "Tuner", "propose"),
    ("tuning.apply", "repro.tuning.tuner", "Tuner", "apply"),
    ("ordering.measure", "repro.ordering.dependence", "DependenceAnalyzer", "measure"),
    ("ordering.lp_solve", "repro.ordering.lp", "LPOrderOptimizer", "optimize"),
    ("forecasting.forecast", "repro.forecasting.predictor", "WorkloadPredictor", "forecast"),
    ("core.tick", "repro.core.driver", "Driver", "on_tick"),
    ("core.tuning_pass", "repro.core.organizer", "Organizer", "run_tuning"),
    ("core.tuning_pass", "repro.core.organizer", "Organizer", "run_policy_pass"),
    ("core.tuning_pass", "repro.core.organizer", "Organizer", "replay_pass"),
    ("fleet.fork", "repro.fleet.parallel", "FleetWorkerPool", "__init__"),
    ("fleet.execute_all", "repro.fleet.parallel", "FleetWorkerPool", "execute_all"),
    ("fleet.tick_rpc", "repro.fleet.parallel", "FleetWorkerPool", "tick"),
    ("fleet.replay_rpc", "repro.fleet.parallel", "FleetWorkerPool", "replay"),
    ("fleet.snapshot", "repro.fleet.parallel", "FleetWorkerPool", "snapshot"),
    ("fleet.sync", "repro.fleet.parallel", "FleetWorkerPool", "sync"),
    ("fleet.replay_round", "repro.fleet.arbiter", "FleetOrganizer", "replay_round"),
)
#: WhatIfOptimizer.hypothetical is a context manager: entering it applies
#: the delta, leaving it rolls it back; the body between is priced by the
#: caller and timed under whatever span the caller is in
HYPOTHETICAL = ("repro.cost.what_if", "WhatIfOptimizer", "hypothetical")
APPLY_SPAN, ROLLBACK_SPAN = "cost.whatif.apply", "cost.whatif.rollback"

SPANS = tuple(dict.fromkeys(
    [t[0] for t in TARGETS] + [APPLY_SPAN, ROLLBACK_SPAN]
))
#: established names that replace some of the generated metric names
RENAMED = {
    f"{APPLY_SPAN}.calls": "cost.whatif.hypotheticals",
    f"{APPLY_SPAN}.self_s": "cost.whatif.apply_self_s",
    f"{ROLLBACK_SPAN}.self_s": "cost.whatif.rollback_self_s",
    "cost.whatif.price.self_s": "cost.whatif.price_self_s",
    "fleet.fork.s": "fleet.fork_s",
    "core.tuning_pass.calls": "core.tuning_passes",
}
#: per-call samples are kept for this span, for latency percentiles
SAMPLED_SPAN = "dbms.execute"


class LayerTracer:
    """Inclusive and self time per span, accumulated in memory."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in SPANS}
        self.inclusive = {name: 0.0 for name in SPANS}
        self.self_time = {name: 0.0 for name in SPANS}
        self.samples: list[float] = []
        self.snapshot_bytes = 0
        #: child time of each open span, innermost last
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- timing ------------------------------------------------------

    def _timed(self, span: str, fn):
        stack = self._stack
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        samples = self.samples if span == SAMPLED_SPAN else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[span] += 1
                inclusive[span] += elapsed
                self_time[span] += elapsed - children[0]
                if samples is not None:
                    samples.append(elapsed)

        return wrapper

    def _hypothetical(self, original):
        tracer = self

        @functools.wraps(original)
        @contextmanager
        def hypothetical(optimizer, delta):
            manager = original(optimizer, delta)
            result = tracer._timed(APPLY_SPAN, manager.__enter__)()
            try:
                yield result
            except BaseException as exc:
                if not tracer._timed(ROLLBACK_SPAN, manager.__exit__)(
                    type(exc), exc, exc.__traceback__
                ):
                    raise
            else:
                tracer._timed(ROLLBACK_SPAN, manager.__exit__)(None, None, None)

        return hypothetical

    def _counting_snapshot(self, timed):
        """Sum the blob lengths the pool's snapshot/sync RPCs return."""

        @functools.wraps(timed)
        def wrapper(*args, **kwargs):
            collected = timed(*args, **kwargs)
            self.snapshot_bytes += sum(len(blob) for _, _, blob in collected)
            return collected

        return wrapper

    # -- installation ------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _lookup(module_name: str, owner_name: str | None, attr: str):
        """The owner of a target and its raw attribute; raises when the
        program no longer has it, so a renamed target cannot read 0."""
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        return owner, owner.__dict__[attr]

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for span, module_name, owner_name, attr in TARGETS:
            owner, raw = self._lookup(module_name, owner_name, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._timed(span, raw.__func__))
            else:
                wrapped = self._timed(span, raw)
                if attr in ("snapshot", "sync"):
                    wrapped = self._counting_snapshot(wrapped)
            self._replace(owner, attr, wrapped)
        owner, raw = self._lookup(*HYPOTHETICAL)
        self._replace(owner, HYPOTHETICAL[2], self._hypothetical(raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-span calls, inclusive and self seconds, plus the remainder
        of ``run_s`` that no span covers."""
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls"] = float(self.calls[span])
            out[f"{span}.s"] = self.inclusive[span]
            out[f"{span}.self_s"] = self.self_time[span]
        out = {RENAMED.get(k, k): v for k, v in out.items()}
        out["bench.unattributed_s"] = run_s - sum(self.self_time.values())
        out["bench.traced_run_s"] = run_s
        out["fleet.snapshot_bytes"] = float(self.snapshot_bytes)
        samples = sorted(self.samples)
        out["dbms.query_samples"] = float(len(samples))
        out["dbms.query_p50_us"] = _percentile(samples, 0.50) * 1e6
        out["dbms.query_p99_us"] = _percentile(samples, 0.99) * 1e6
        return out


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def self_time_names() -> list[str]:
    """The metric names whose values sum, with ``bench.unattributed_s``,
    to ``bench.traced_run_s``."""
    return [RENAMED.get(f"{span}.self_s", f"{span}.self_s") for span in SPANS]
