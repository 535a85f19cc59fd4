"""Self-test of the benchmark harness; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Run from the repository root. It checks that:

- installing the layer tracer replaces every target and uninstalling it
  puts back the very same function objects, so timing runs carry no
  wrappers;
- a tiny replay's fingerprint repeats across two invocations, and a traced
  invocation reproduces it too (tracing does not change behaviour);
- a traced replay's self times plus ``bench.unattributed_s`` add up to its
  run time;
- ``run.py`` fails without printing a result where ``src/repro`` is absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, "src")

import layers  # noqa: E402
from run import SCRATCH, _env  # noqa: E402


def check_wrappers_removed() -> None:
    targets = [t[1:] for t in layers.TARGETS] + [layers.HYPOTHETICAL]
    originals = []
    for module_name, owner_name, attr in targets:
        owner, raw = layers.LayerTracer._lookup(module_name, owner_name, attr)
        originals.append((owner, attr, raw))
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, f"{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{attr} not restored"


def _tiny(trace: bool) -> dict:
    command = [sys.executable, str(HERE / "replay.py"), "--workload",
               "loop-retail", "--seed", "3", "--tiny"]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, env=_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["problems"], result["problems"]
    return result


def check_fingerprint_repeats() -> dict:
    first, second, traced = _tiny(False), _tiny(False), _tiny(True)
    assert first["fingerprint"] == second["fingerprint"], "fingerprint moved"
    assert traced["fingerprint"] == first["fingerprint"], "tracing changed it"
    return traced


def check_self_times_add_up(traced: dict) -> None:
    metrics = traced["layers"]
    selfs = sum(metrics[name] for name in layers.self_time_names())
    total = selfs + metrics["bench.unattributed_s"]
    assert math.isclose(total, metrics["bench.traced_run_s"], rel_tol=1e-9)
    assert metrics["bench.unattributed_s"] >= 0.0, "spans overlap"


def check_fails_without_source() -> None:
    bare = SCRATCH / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "loop-retail",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    assert done.returncode != 0, "succeeded without src/repro"
    assert '"correct"' not in done.stdout, "printed a result"


def main() -> int:
    check_wrappers_removed()
    print("ok: tracer wrappers are installed and removed")
    traced = check_fingerprint_repeats()
    print("ok: tiny fingerprint repeats across invocations and under tracing")
    check_self_times_add_up(traced)
    print("ok: self times plus bench.unattributed_s add up to the run time")
    check_fails_without_source()
    print("ok: run.py fails without printing a result when src is absent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
