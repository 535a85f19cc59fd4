"""The repository's benchmark: closed-loop replays of two workloads.

    python3 perfbench/run.py --workload loop-retail --seed 1 --seconds 55 --trace 0

Run it from the repository root; it imports the package from ``src``.
Workloads (see ``perfbench/workloads.py`` for sizes and why each exists):

- ``loop-retail``: the ``simulate`` defaults; tuning dominates;
- ``fleet-8``: eight skewed retail tenants in process mode, checkpointing.

A run with ``--seed n`` replays :data:`STREAMS` query streams generated
from ``n`` (the tuner decides differently on each, so one stream alone
would make a run's numbers depend on its seed more than on the code).
Each replay runs in a fresh interpreter, so set-up time includes
``import repro``. Streams are replayed in turn until ``--seconds`` is
spent, each at least once. Set-up time is the median over all replays;
every other metric is each stream's median, averaged over the streams, so
each stream weighs the same however many replays fit.

The output check: replays of the same stream must produce the same
fingerprint of their simulated outcome, which must equal the one recorded
in ``perfbench/reference.json`` when the seed has one; every trace query
must run; sampled query results must match a NumPy reference. If any of
that fails the run is not correct and all its operations count as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced replays of the first stream and prints the per-layer
metrics of the traced ones, with the tracing overhead between the two.
The last line of standard output is one JSON object; the line before it
carries the run's provenance.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import FLEET_WORKERS, WORKLOADS  # noqa: E402

#: query streams per run, which is also the fewest replays a timing run
#: makes; each replay takes 5-8 s on a 2-CPU host, so each stream gets
#: one or two replays in 55 s
STREAMS = {"loop-retail": 5, "fleet-8": 5}
#: a replay that takes longer than this is a failure
REPLAY_TIMEOUT_S = 150
#: where fleet checkpoints go; inside the checkout, removed after each run
SCRATCH = Path(".perfbench_tmp")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _replay(workload: str, seed: int, stream: int, scratch: Path,
            trace: bool) -> dict:
    """One replay in a fresh interpreter: its JSON result, or an error."""
    directory = scratch / f"replay-{time.monotonic_ns()}"
    directory.mkdir(parents=True)
    command = [sys.executable, str(HERE / "replay.py"), "--workload", workload,
               "--seed", str(seed), "--stream", str(stream),
               "--scratch", str(directory)]
    if trace:
        command.append("--trace")
    try:
        done = subprocess.run(command, env=_env(), capture_output=True,
                              text=True, timeout=REPLAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        result = {"error": f"replay exceeded {REPLAY_TIMEOUT_S} s"}
    else:
        if done.returncode == 0:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        else:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            result = {"error": f"replay exited {done.returncode}: {tail[0]}"}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result.update(stream=stream, traced=trace)
    return result


def _import_times() -> dict[str, float]:
    """``import repro`` and its scipy part, from ``-X importtime``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=_env(), capture_output=True, text=True, timeout=REPLAY_TIMEOUT_S,
        check=True,
    )
    total_us = scipy_us = 0
    scipy_depth = None
    for line in done.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if match is None:
            continue
        cumulative, depth, name = int(match[1]), len(match[2]), match[3]
        if name == "repro":
            total_us = cumulative
        # nested imports print before their parent: keep the outermost
        # scipy modules, each of which already includes its children
        if name.split(".")[0] == "scipy":
            if scipy_depth is None or depth < scipy_depth:
                scipy_depth, scipy_us = depth, cumulative
            elif depth == scipy_depth:
                scipy_us += cumulative
    return {"import.s": total_us / 1e6, "import.scipy_s": scipy_us / 1e6}


def _recorded(workload: str, seed: int) -> list[str]:
    """The fingerprint recorded for each stream of ``seed``, if any."""
    with open(HERE / "reference.json") as handle:
        recorded = json.load(handle)["fingerprints"].get(workload, {})
    return recorded.get(str(seed), [])


def _provenance(results: list[dict], trace: bool) -> dict:
    sha = None
    if Path(".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except OSError:
            pass
    fingerprints: dict[int, str] = {}
    for result in results:
        if "fingerprint" in result:
            fingerprints.setdefault(result["stream"], result["fingerprint"])
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": sha,
        "fleet_workers": FLEET_WORKERS,
        "trace": trace,
        "replays": len(results),
        "traced_replays": sum(1 for r in results if r["traced"]),
        "fingerprints": [fingerprints[s] for s in sorted(fingerprints)],
        # every replay's [stream, value], so spreads can be read from a run
        "samples": {key: [[r["stream"], round(r[key], 6)]
                          for r in results if key in r]
                    for key in ("setup_s", "run_s", "peak_rss_mib")},
    }


def _check(workload: str, seed: int, results: list[dict]) -> list[str]:
    problems = [r["error"] for r in results if "error" in r]
    for result in results:
        problems += result.get("problems", [])
    recorded = _recorded(workload, seed)
    for stream in sorted({r["stream"] for r in results}):
        prints = {r["fingerprint"] for r in results
                  if r["stream"] == stream and "fingerprint" in r}
        if len(prints) > 1:
            problems.append(f"stream {stream}: replays disagree")
        elif stream < len(recorded) and prints and prints != {recorded[stream]}:
            problems.append(f"stream {stream}: fingerprint differs from the "
                            f"one recorded for seed {seed}")
    return problems


def _per_stream(results: list[dict], key: str) -> float:
    """The mean over streams of each stream's median ``key``.

    Streams tune differently and some get one replay more than others in
    the time allowed, so each stream weighs the same however often it ran.
    """
    by_stream: dict[int, list[float]] = {}
    for result in results:
        by_stream.setdefault(result["stream"], []).append(result[key])
    return statistics.fmean(statistics.median(v) for v in by_stream.values())


def _end_to_end(results: list[dict]) -> dict[str, tuple[float, str]]:
    run_s = _per_stream(results, "run_s")
    return {
        # set-up does not depend on the stream
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "run_s": (run_s, "s"),
        # every stream replays the same trace, so the same query count
        "queries_per_s": (results[0]["queries"] / run_s, "1/s"),
        "peak_rss_mib": (_per_stream(results, "peak_rss_mib"), "MiB"),
        "sim_query_ms": (_per_stream(results, "sim_query_ms"), "ms"),
    }


def _per_layer(untraced: list[dict], traced: list[dict],
               imports: dict[str, float]) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {
        name: (value, "s") for name, value in imports.items()
    }
    for key in ("suite_s", "trace_s"):
        metrics[f"workload.{key}"] = (
            statistics.median(r["timings"][key] for r in traced), "s")
    # the median traced replay by run time supplies every span, so its
    # self times and unattributed remainder still add up to its run_s
    middle = sorted(traced, key=lambda r: r["run_s"])[(len(traced) - 1) // 2]
    for name, value in {**middle["layers"], **middle["counters"]}.items():
        metrics[name] = (value, _unit(name))
    metrics["sim.reconfig_ms"] = (middle["sim_reconfig_ms"], "ms")
    untraced_s = statistics.median(r["run_s"] for r in untraced)
    traced_s = statistics.median(r["run_s"] for r in traced)
    metrics["bench.trace_overhead_pct"] = (
        100.0 * (traced_s / untraced_s - 1.0), "%")
    return metrics


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_rate"):
        return "ratio"
    return "count"


def _schedule(trace: bool, streams: int):
    """Which (stream, traced) each successive replay runs."""
    count = 0
    while True:
        if trace:
            yield 0, count % 2 == 1
        else:
            yield count % streams, False
        count += 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        return _fail("run from the repository root: src/repro is missing")
    # compile every module once, so no timed import pays for bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   check=True, capture_output=True, timeout=REPLAY_TIMEOUT_S)

    trace = bool(args.trace)
    # every stream once; a traced run needs one untraced and one traced
    minimum = 2 if trace else STREAMS[args.workload]
    scratch = SCRATCH / f"run-{os.getpid()}"
    results: list[dict] = []
    started = time.perf_counter()
    try:
        imports = _import_times() if trace else {}
        for stream, traced in _schedule(trace, STREAMS[args.workload]):
            elapsed = time.perf_counter() - started
            if len(results) >= minimum and (
                    elapsed * (len(results) + 1) / len(results) > args.seconds):
                break
            results.append(_replay(args.workload, args.seed, stream, scratch,
                                   traced))
            if "error" in results[-1]:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    problems = _check(args.workload, args.seed, results)
    print("provenance " + json.dumps(_provenance(results, trace)))
    for problem in problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    complete = [r for r in results if "error" not in r]
    if not complete:
        return _fail("no replay completed")
    attempted = sum(r["attempted"] for r in complete)
    failed = attempted if problems else sum(r["failed"] for r in complete)
    untraced = [r for r in complete if not r["traced"]]
    if trace:
        metrics = _per_layer(untraced, [r for r in complete if r["traced"]],
                             imports)
    else:
        metrics = _end_to_end(untraced)
        metrics["success_rate"] = (1.0 - failed / attempted, "ratio")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
