"""One replay of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/replay.py --workload loop-retail --seed 1 --stream 0 [--trace]

Run from the repository root with ``src`` importable. ``setup_s`` runs from
this script's first statement, before ``import repro``, until the first bin
is ready; ``run_s`` covers the replay of every bin. With ``--trace`` the
layer wrappers are installed before set-up and removed right after the
replay, before the output check runs.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, default=0,
                        help="which query stream of the seed to replay")
    parser.add_argument("--scratch", default=None,
                        help="directory for fleet checkpoints")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="a small instance, for the self-test")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (timed as part of set-up)

    import workloads
    from layers import LayerTracer

    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.make(args.workload, args.seed, args.stream,
                              args.scratch, tiny=args.tiny)
    try:
        timings: dict[str, float] = {}
        workload.setup(timings)
        setup_s = time.perf_counter() - STARTED
        started = time.perf_counter()
        workload.run()
        run_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    outcome = workload.outcome()

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mib": peak_kib / 1024.0,
        "queries": outcome.queries,
        "sim_query_ms": outcome.sim_query_ms,
        "sim_reconfig_ms": outcome.sim_reconfig_ms,
        "fingerprint": outcome.fingerprint,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "timings": timings,
        "counters": outcome.counters,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(run_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
