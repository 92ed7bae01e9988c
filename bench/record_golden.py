"""Record the golden output digests of the default seed.

    python3 bench/record_golden.py

Runs every item of each workload's default pool once on the default seed and
writes one digest per item to golden.json.  Writes nothing if any item fails
its exact checks.  Re-record only for a change that is meant to alter the
outputs; a rewrite that keeps results bit-for-bit must leave the file as it
is.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        lib = run.load_library()
        items = workload.inputs(lib, run.DEFAULT_SEED, workload.pool)
        runner = run.Runner(lib, workload, [], items)
        run.warm_up(runner)
        if runner.failed:
            for line in runner.problems:
                print(f"{name}: FAILED {line}", file=sys.stderr)
            return 1
        digests[name] = runner.first
        print(f"{name}: {len(items)} items")
    run.GOLDEN.write_text(json.dumps({"seed": run.DEFAULT_SEED, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
