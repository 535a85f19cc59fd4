"""Record the fingerprints the output check compares against.

    python3 perfbench/record.py

Run from the repository root. Replays every stream of every workload once
for each seed listed under ``seeds`` in ``perfbench/reference.json`` and
writes the fingerprints back to that file. Re-record only in a change that
means to alter the simulated outcome; a performance change must leave
every recorded fingerprint as it is.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import SCRATCH, STREAMS, _replay  # noqa: E402

REFERENCE = HERE / "reference.json"


def main() -> int:
    reference = json.loads(REFERENCE.read_text())
    scratch = SCRATCH / "record"
    recorded: dict[str, dict[str, list[str]]] = {}
    try:
        for workload, seeds in reference["seeds"].items():
            for seed in seeds.values():
                prints = []
                for stream in range(STREAMS[workload]):
                    result = _replay(workload, seed, stream, scratch, False)
                    if "error" in result or result["problems"]:
                        print(f"{workload} seed {seed} stream {stream}: "
                              f"{result.get('error') or result['problems']}",
                              file=sys.stderr)
                        return 1
                    prints.append(result["fingerprint"])
                recorded.setdefault(workload, {})[str(seed)] = prints
                print(f"{workload} seed {seed}: {len(prints)} streams")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    reference["fingerprints"] = recorded
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
