"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 benchmarks/harness/run.py --workload grid-unicast --seed 1 \\
        --seconds 18 --trace 0

The second-to-last stdout line is a JSON object describing the run
(workload, seed, passes, ``results_sha``, failed checks, host). The last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``,
with every end-to-end metric when ``--trace 0`` and every per-layer
metric when ``--trace 1``. The exit code is 0 only when every check
passed. See README.md in this directory for the workloads and metrics.

The run re-executes itself once with ``PYTHONHASHSEED=0``: ``repro serve``
on design F currently gives results that depend on string-hash order, and
``results_sha`` must be a function of the code and the seed alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent
SRC = HARNESS.parents[1] / "src"
WORKLOAD_NAMES = ("grid-multicast", "grid-unicast", "serve-sweep", "noc-load")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="measurement time on the reference host; sets "
                             "the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    info, result = suite.measure(
        args.workload, args.seed, suite.pass_count(args.workload, args.seconds),
        bool(args.trace),
    )
    for failure in info["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
