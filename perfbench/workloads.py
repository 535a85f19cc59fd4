"""The benchmark's workloads, built through the package's public API.

Every workload is a closed-loop replay: one client replays a binned trace
bin by bin as fast as the host allows, with the self-management loop
ticking at each bin boundary. There is no arrival schedule, so throughput
is work per second at the stated size.

Inputs and seeds. Each workload's table data and binned trace (how many
queries of each family arrive in each bin) are fixed fixtures generated
from :data:`FIXTURE_SEED`, so the size and the mix are the same on every
run. The ``--seed`` of a run generates the query stream: the literal
values of every query and their interleaving within each bin. Those
change what the tuner sees and therefore what it decides (which indexes,
encodings and placements it commits), while the amount of work per run
stays comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum

import numpy as np

#: seed of every workload's table data and trace counts
FIXTURE_SEED = 7
#: rows of the retail ``orders`` table (inventory gets a quarter)
ROWS = 40_000
BINS = 24
BIN_MS = 60_000

FLEET_TENANTS = 8
FLEET_SKEW = 0.8
FLEET_ROWS = 10_000
FLEET_BINS = 12
FLEET_TUNE_EVERY_BINS = 4
FLEET_CHECKPOINT_EVERY = 4
#: fleet worker processes: with two on a 2-CPU host the parent and both
#: workers compete for the cores and run times spread far wider
FLEET_WORKERS = 1

#: queries per replay whose results are checked against a NumPy reference
RESULT_CHECK_QUERIES = 60
#: (rows, bins) of the small instance the self-test replays
TINY = (4_000, 10)

WORKLOADS = ("loop-retail", "fleet-8")
#: counters only the fleet has; the other workloads report them as 0
FLEET_COUNTERS = ("fleet.checkpoint_write_ms", "fleet.checkpoint_bytes",
                  "fleet.full_passes", "fleet.replays_applied",
                  "fleet.worker_restarts")


@dataclass
class Outcome:
    """What one replay produced, for metrics and the output check."""

    queries: int
    #: simulated mean query latency over the final quarter of bins
    sim_query_ms: float
    sim_reconfig_ms: float
    fingerprint: str
    attempted: int
    failed: int
    #: reasons the output check failed (empty when correct)
    problems: list[str] = field(default_factory=list)
    #: per-layer counters read from the program after the run
    counters: dict[str, float] = field(default_factory=dict)


def stream_seed(seed: int, stream: int, tenant: int = 0) -> int:
    """The query-stream seed of one tenant in stream ``stream`` of the
    run's ``--seed`` (distinct for up to 1000 streams and 100 tenants)."""
    return (seed * 1_000 + stream) * 100 + tenant


# ----------------------------------------------------------------------
# canonical fingerprints


def canonical(value):
    """A JSON-able form of ``value`` that does not depend on hash order.

    Floats keep every digit through ``repr``; sets are sorted by their
    canonical form, so the result is the same under any hash seed.
    """
    if isinstance(value, Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (np.integer, np.floating)):
        return canonical(value.item())
    if is_dataclass(value):
        return [type(value).__name__] + [
            [f.name, canonical(getattr(value, f.name))]
            for f in fields(value)
            if f.compare
        ]
    if isinstance(value, dict):
        return sorted(
            ([canonical(k), canonical(v)] for k, v in value.items()),
            key=json.dumps,
        )
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def _events(events) -> list:
    """The event stream with wall-time data keys stripped."""
    return [
        (
            event.at_ms,
            event.kind,
            event.message,
            {k: v for k, v in event.data.items() if not k.endswith("seconds")},
        )
        for event in events.events()
    ]


def _tenant_digest(records, events, db) -> list:
    from repro.configuration import ConfigurationInstance

    return [
        [
            (r.index, r.queries_executed, r.workload_ms, r.reconfiguration_ms)
            for r in records
        ],
        _events(events),
        ConfigurationInstance.capture(db),
    ]


def fingerprint(tenants: dict[str, list]) -> str:
    blob = json.dumps(canonical(tenants), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# output checks


def _column_arrays(db) -> dict[str, dict[str, np.ndarray]]:
    """Every column of every table, decoded and concatenated."""
    arrays: dict[str, dict[str, np.ndarray]] = {}
    for table in db.catalog.tables():
        chunks = table.chunks()
        arrays[table.name] = {
            name: np.concatenate([c.segment(name).values() for c in chunks])
            for name in table.schema.column_names
        }
    return arrays


_OPS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _reference(columns: dict[str, np.ndarray], query) -> tuple[int, object]:
    """Row count and aggregate of ``query`` computed with NumPy alone."""
    n = len(next(iter(columns.values())))
    mask = np.ones(n, dtype=bool)
    for p in query.predicates:
        mask &= _OPS[p.op](columns[p.column], p.value)
    rows = int(mask.sum())
    if not query.aggregate:
        return rows, None
    if query.aggregate == "count":
        return rows, float(rows)
    values = columns[query.aggregate_column][mask]
    if values.size == 0:
        return rows, None
    if values.dtype.kind == "U":
        ordered = np.sort(values)
        return rows, str(ordered[0] if query.aggregate == "min" else ordered[-1])
    reduce = {"sum": np.sum, "avg": np.mean, "min": np.min, "max": np.max}
    return rows, float(reduce[query.aggregate](values))


def check_results(db, pristine_db, families, seed: int) -> list[str]:
    """Run sampled queries on the tuned ``db`` and compare each result with
    a NumPy evaluation over ``pristine_db``'s freshly loaded columns."""
    from repro.util.rng import derive_rng

    reference = _column_arrays(pristine_db)
    rng = derive_rng(seed, "perfbench-result-check")
    names = sorted(families)
    problems = []
    for i in range(RESULT_CHECK_QUERIES):
        query = families[names[i % len(names)]].sample(rng)
        result = db.execute(query)
        rows, value = _reference(reference[query.table], query)
        got = result.aggregate_value
        same = result.row_count == rows and (
            got == value
            if not isinstance(value, float) or not isinstance(got, float)
            else math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-9)
        )
        if not same:
            problems.append(
                f"{query}: engine gave ({result.row_count}, {got!r}), "
                f"reference ({rows}, {value!r})"
            )
    return problems


def _loop_checks(trace, records) -> list[str]:
    problems = []
    if len(records) != len(trace.bins):
        problems.append(f"{len(records)} bin records for {len(trace.bins)} bins")
    for trace_bin, record in zip(trace.bins, records):
        if record.queries_executed != trace_bin.total:
            problems.append(
                f"bin {trace_bin.index}: {record.queries_executed} of "
                f"{trace_bin.total} queries executed"
            )
    return problems


def _final_quarter_ms(*tenant_records) -> float:
    """Mean simulated query latency over each tenant's final quarter of
    bins, weighted by query count."""
    tail = [r for records in tenant_records
            for r in records[-max(1, len(records) // 4):]]
    queries = sum(r.queries_executed for r in tail)
    return sum(r.workload_ms for r in tail) / queries if queries else 0.0


def _pass_counts(events) -> tuple[int, int]:
    from repro.core import EventKind

    started = failed = 0
    for event in events.events():
        if event.kind is EventKind.TUNING_STARTED:
            started += 1
        elif event.kind in (EventKind.ERROR, EventKind.FAULT):
            failed += 1
    return started, failed


# ----------------------------------------------------------------------
# single-database workloads


def _retail_suite(rows: int):
    from repro.workload import build_retail_suite

    return build_retail_suite(
        orders_rows=rows, inventory_rows=rows // 4, seed=FIXTURE_SEED
    )


class LoopWorkload:
    """One database under the closed loop (``simulate``-style bootstrap)."""

    def __init__(self, seed: int, stream: int, rows: int = ROWS,
                 bins: int = BINS) -> None:
        self.seed = stream_seed(seed, stream)
        self.rows = rows
        self.bins = bins

    def setup(self, timings: dict[str, float]) -> None:
        from repro import (
            ClosedLoopSimulation,
            ConstraintSet,
            Driver,
            DriverConfig,
            OrganizerConfig,
            ResourceBudget,
        )
        from repro.configuration import INDEX_MEMORY
        from repro.core import ForecastDriftTrigger, PeriodicTrigger
        from repro.util.units import MIB
        from repro.workload import generate_trace
        from repro.tuning import standard_features

        started = time.perf_counter()
        suite = _retail_suite(self.rows)
        timings["suite_s"] = time.perf_counter() - started

        started = time.perf_counter()
        triggers = [PeriodicTrigger(every_ms=8 * BIN_MS),
                    ForecastDriftTrigger(relative_threshold=0.25)]
        trace = generate_trace(
            suite.families, suite.rates, self.bins, bin_duration_ms=BIN_MS,
            seed=FIXTURE_SEED,
        )
        timings["trace_s"] = time.perf_counter() - started

        driver = Driver(
            standard_features(),
            constraints=ConstraintSet([ResourceBudget(INDEX_MEMORY, 4.0 * MIB)]),
            triggers=triggers,
            config=DriverConfig(
                organizer=OrganizerConfig(
                    horizon_bins=4, min_history_bins=4, cooldown_ms=3 * BIN_MS
                )
            ),
        )
        suite.database.plugin_host.attach(driver)
        self.suite, self.trace, self.driver = suite, trace, driver
        self.simulation = ClosedLoopSimulation(
            suite.database, trace, seed=self.seed
        )

    def run(self) -> None:
        self.records = self.simulation.run()

    def outcome(self) -> Outcome:
        db, records, events = self.suite.database, self.records, self.driver.events
        digest = fingerprint({"": _tenant_digest(records, events, db)})
        queries = sum(r.queries_executed for r in records)
        passes, failed = _pass_counts(events)
        problems = _loop_checks(self.trace, records)
        problems += check_results(db, _retail_suite(self.rows).database,
                                  self.suite.families, self.seed)
        ctx = self.driver.context
        plan, whatif = ctx.plan_stats, ctx.whatif_stats
        return Outcome(
            queries=queries,
            sim_query_ms=_final_quarter_ms(records),
            sim_reconfig_ms=sum(r.reconfiguration_ms for r in records),
            fingerprint=digest,
            attempted=queries + passes,
            failed=failed,
            problems=problems,
            counters={
                "plan.cache_hit_rate": plan.hit_rate,
                "plan.cache_evictions": float(plan.evictions),
                "cost.whatif.cache_hit_rate": whatif.hit_rate,
                **dict.fromkeys(FLEET_COUNTERS, 0.0),
            },
        )

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# the fleet


class FleetWorkload:
    """Eight Zipf-skewed retail tenants in process mode, checkpointing."""

    def __init__(self, seed: int, stream: int, scratch: str) -> None:
        self.seed = stream_seed(seed, stream)
        self.scratch = scratch

    def setup(self, timings: dict[str, float]) -> None:
        from repro import ClosedLoopSimulation
        from repro.fleet import build_fleet

        started = time.perf_counter()
        fleet = build_fleet(
            FLEET_TENANTS,
            skew=FLEET_SKEW,
            seed=FIXTURE_SEED,
            bins=FLEET_BINS,
            rows=FLEET_ROWS,
            tune_every_bins=FLEET_TUNE_EVERY_BINS,
            parallel="process",
            workers=FLEET_WORKERS,
            checkpoint_dir=self.scratch,
            checkpoint_every=FLEET_CHECKPOINT_EVERY,
        )
        # build_fleet builds suites and traces in one call; the fleet's
        # set-up time is reported as suite time
        timings["suite_s"] = time.perf_counter() - started
        timings["trace_s"] = 0.0
        for i, ctx in enumerate(fleet.tenants):
            ctx.simulation = ClosedLoopSimulation(
                ctx.database, ctx.trace, seed=self.seed + i
            )
        self.fleet = fleet

    def run(self) -> None:
        self.report = self.fleet.run()

    def outcome(self) -> Outcome:
        from repro.fleet.workload import build_tenant_suite, tenant_specs

        fleet, report = self.fleet, self.report
        tenants = {}
        problems: list[str] = []
        passes = failed = 0
        for ctx in fleet.tenants:
            tenants[ctx.tenant] = _tenant_digest(ctx.records, ctx.events,
                                                 ctx.database)
            problems += [f"{ctx.tenant}: {p}"
                         for p in _loop_checks(ctx.trace, ctx.records)]
            started, faults = _pass_counts(ctx.events)
            passes += started
            failed += faults
        tenants["arbitration"] = report.arbitration
        records = [r for ctx in fleet.tenants for r in ctx.records]
        hot = fleet.tenants[0]
        spec = tenant_specs(FLEET_TENANTS, skew=FLEET_SKEW, seed=FIXTURE_SEED)[0]
        problems += check_results(
            hot.database,
            build_tenant_suite(spec, rows=FLEET_ROWS).database,
            hot.trace.families,
            self.seed,
        )
        counters = report.fleet_counters
        restarts = counters.get("worker_restarts", 0.0)
        arb = report.arbitration
        # a failed RPC raises out of the run, which fails the whole replay,
        # so RPCs are not counted as operations of their own
        return Outcome(
            queries=report.total_queries,
            sim_query_ms=_final_quarter_ms(*(c.records for c in fleet.tenants)),
            sim_reconfig_ms=sum(r.reconfiguration_ms for r in records),
            fingerprint=fingerprint(tenants),
            attempted=report.total_queries + passes,
            failed=failed + int(restarts),
            problems=problems,
            counters={
                "plan.cache_hit_rate": report.plan.hit_rate,
                "plan.cache_evictions": float(report.plan.evictions),
                "cost.whatif.cache_hit_rate": report.whatif.hit_rate,
                "fleet.checkpoint_write_ms": counters.get("checkpoint_write_ms", 0.0),
                "fleet.checkpoint_bytes": counters.get("checkpoint_bytes", 0.0),
                "fleet.full_passes": float(arb["full_passes"]),
                "fleet.replays_applied": float(arb["replays_applied"]),
                "fleet.worker_restarts": restarts,
            },
        )

    def close(self) -> None:
        # stops the worker pool if the run failed before report() did
        if getattr(self, "fleet", None) is not None:
            self.fleet.sync_workers()


def make(name: str, seed: int, stream: int, scratch: str, tiny: bool = False):
    if name == "loop-retail":
        return LoopWorkload(seed, stream, *(TINY if tiny else (ROWS, BINS)))
    if name == "fleet-8" and not tiny:
        return FleetWorkload(seed, stream, scratch)
    raise ValueError(f"unknown workload {name!r} (one of {', '.join(WORKLOADS)})")
