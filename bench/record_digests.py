"""Record the default seed's artifact digests into config.json.

    python3 bench/record_digests.py [WORKLOAD ...]

Run it only when a change is meant to alter artifact bytes, and say so in that
change: the digests are how every benchmark run on the default seed checks
that the program's outputs did not move.  Refuses to record a workload whose
verb calls fail their exit-code or invariant checks.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import worker  # noqa: E402  (needs the paths above)
from workloads import WORKLOADS, sha256_of  # noqa: E402


def main() -> int:
    config_path = BENCH / "config.json"
    config = json.loads(config_path.read_text())
    cli = worker._import_program()
    for workload in sys.argv[1:] or list(WORKLOADS):
        calls = worker.prepare(workload, config["default_seed"])
        codes = worker.run_pass(cli, calls)["codes"]
        _, failed, messages = worker.check_pass(calls, codes, None)
        if failed:
            print("\n".join(messages), file=sys.stderr)
            return 1
        config["digests"][workload] = {
            path: sha256_of(path) for call in calls for path in call.outputs}
        os.chdir(BENCH.parent)
        print(f"{workload}: {len(config['digests'][workload])} artifacts")
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
