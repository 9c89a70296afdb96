"""gwpva benchmark: end-to-end and per-layer timings of the gwpva CLI.

Run from the repository root:

    python3 perfbench/run.py --workload bear-report --seed 2024 --seconds 50 --trace 0

Workloads are bear-report, decline-report and coverage-study (see
perfbench/README.md). The run is a closed loop from one client in one
process: a pass starts when the previous one has finished, while one more
pass of the mean length so far still ends within --seconds (at least two
passes untraced, one traced). Every output is checked.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates an untraced pass with a traced replay of the same
pass, and reports per-layer self times, work counts and tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("bear-report", "decline-report", "coverage-study"))
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "gwpva" / "cli.py").is_file():
        print("perfbench: src/gwpva/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import harness
    result = harness.run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
