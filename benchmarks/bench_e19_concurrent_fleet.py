"""E19 — concurrent fleet execution: parallel bins, bit-identical results.

The same 8-tenant Zipf-skewed fleet as E18 is run twice over the same
per-tenant workloads — serial and process mode — and every run is
fingerprinted down to the bit: per-tenant bin records,
event streams (wall-time keys stripped), final physical configurations,
and the fleet counter rollup.

Claims asserted:

- **determinism** — process mode produces a fingerprint *equal* to
  serial: both modes run the same commit-ordered bin protocol, so the
  execution mode is invisible to every decision and every counter;
- **incremental rollups** — ``report()`` performs zero full
  registry walks (``snapshot_counters``); the rollup is assembled
  from per-bin dirty-counter drains as bins complete;
- **speedup** — on a multi-core host (≥ 4 CPUs), process mode
  finishes the fleet in at most half the serial wall-clock. The
  assertion is gated on ``os.cpu_count()``: a 1-core host still runs
  the identity and rollup claims, which do not need parallel hardware.

Runs under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_e19_concurrent_fleet.py``) or standalone
(``PYTHONPATH=src python benchmarks/bench_e19_concurrent_fleet.py
--quick``, the CI smoke setting).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from conftest import save_table

from repro.configuration.config import ConfigurationInstance
from repro.fleet import build_fleet
from repro.telemetry.metrics import MetricRegistry

N_TENANTS = 8
SKEW = 0.8
SEED = 7
#: process mode must at least halve the wall-clock on real parallel hardware
MIN_SPEEDUP = 2.0
#: cores below which the speedup claim is skipped (identity still runs)
MIN_CPUS_FOR_SPEEDUP = 4


def _normalized_events(ctx) -> list[tuple]:
    """Event stream with wall-time data keys stripped (host-dependent)."""
    stream = []
    for event in ctx.events.events():
        data = {
            k: v
            for k, v in sorted(event.data.items())
            if not k.endswith("seconds")
        }
        stream.append((event.at_ms, event.kind, event.message, tuple(data.items())))
    return stream


def _fingerprint(fleet, report) -> dict:
    """Everything a mode could plausibly perturb, bit-for-bit."""
    tenants = {}
    for ctx in fleet.tenants:
        tenants[ctx.tenant] = (
            [
                (r.index, r.queries_executed, r.workload_ms,
                 r.reconfiguration_ms, r.mean_query_ms, r.now_ms,
                 r.reconfigured)
                for r in ctx.records
            ],
            _normalized_events(ctx),
            ConfigurationInstance.capture(ctx.database),
        )
    return {
        "tenants": tenants,
        "counters": report.counters,
        "arbitration": report.arbitration,
    }


def _run_mode(mode: str, bins: int, rows: int, workers: int | None = None):
    fleet = build_fleet(
        N_TENANTS,
        skew=SKEW,
        seed=SEED,
        bins=bins,
        rows=rows,
        parallel=None if mode == "serial" else mode,
        workers=workers,
    )
    started = time.perf_counter()
    fleet.run()
    # count full registry walks inside report(): the incremental rollup
    # must assemble the fleet counters from drained values alone
    walks = 0
    original = MetricRegistry.snapshot_counters

    def counting(self):
        nonlocal walks
        walks += 1
        return original(self)

    MetricRegistry.snapshot_counters = counting
    try:
        report = fleet.report()
    finally:
        MetricRegistry.snapshot_counters = original
    wall_s = time.perf_counter() - started
    return {
        "mode": mode,
        "wall_s": wall_s,
        "report_walks": walks,
        "fingerprint": _fingerprint(fleet, report),
    }


def run_concurrent_comparison(bins: int = 12, rows: int = 4_000) -> dict:
    serial = _run_mode("serial", bins, rows)
    process = _run_mode("process", bins, rows)
    return {
        "serial": serial,
        "process": process,
        "speedup": serial["wall_s"] / process["wall_s"],
        "cpus": os.cpu_count() or 1,
    }


def check(result: dict) -> None:
    serial = result["serial"]["fingerprint"]
    run = result["process"]["fingerprint"]
    assert run["tenants"] == serial["tenants"], (
        "process mode diverged from serial in per-tenant "
        "records/events/configurations"
    )
    assert run["counters"] == serial["counters"], (
        "process mode fleet rollup is not bit-equal to serial"
    )
    assert run["arbitration"] == serial["arbitration"], (
        "process mode arbitration summary diverged from serial"
    )
    for mode in ("serial", "process"):
        walks = result[mode]["report_walks"]
        assert walks == 0, (
            f"{mode} report() walked full registries {walks} times; the "
            "rollup must be incremental"
        )
    if result["cpus"] >= MIN_CPUS_FOR_SPEEDUP:
        assert result["speedup"] >= MIN_SPEEDUP, (
            f"process mode speedup {result['speedup']:.2f}x on "
            f"{result['cpus']} CPUs (need {MIN_SPEEDUP:.1f}x)"
        )


def report(result: dict) -> None:
    rows = []
    serial_wall = result["serial"]["wall_s"]
    for mode in ("serial", "process"):
        run = result[mode]
        identical = (
            "baseline"
            if mode == "serial"
            else str(run["fingerprint"] == result["serial"]["fingerprint"])
        )
        rows.append([
            mode,
            f"{run['wall_s']:.2f}",
            f"{serial_wall / run['wall_s']:.2f}x",
            run["report_walks"],
            identical,
        ])
    save_table(
        "e19_concurrent_fleet",
        ["mode", "wall_s", "speedup", "report registry walks",
         "bit-identical"],
        rows,
        "E19: concurrent fleet execution — wall-clock by mode with "
        f"bit-identity to serial ({N_TENANTS} tenants, skew {SKEW}, "
        f"seed {SEED}, {result['cpus']} CPUs)",
    )


def test_e19_concurrent_execution_is_bit_identical():
    result = run_concurrent_comparison()
    report(result)
    check(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller tables/trace (the CI smoke setting)")
    args = parser.parse_args(argv)
    result = run_concurrent_comparison(
        bins=8 if args.quick else 12,
        rows=3_000 if args.quick else 4_000,
    )
    report(result)
    check(result)
    print(
        f"OK (process {result['speedup']:.2f}x vs serial on "
        f"{result['cpus']} CPUs, process mode bit-identical to serial, "
        "0 registry walks in report)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
