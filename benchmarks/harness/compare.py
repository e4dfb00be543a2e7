"""Compare two sets of benchmark runs, workload by workload.

Usage, from the repository root::

    python3 benchmarks/harness/compare.py --parent base/*.json --change new/*.json

Each file holds the stdout of one ``run.py`` run. For every workload and
end-to-end metric it prints each side's median and quartiles and a
verdict, using the direction and bound declared in ``BENCHMARK.json``:

* ``improved`` -- there are at least ten pairs (runs paired in seed
  order), the change wins at least nine tenths of them (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved (too few pairs)`` -- the change would be ``improved`` but
  fewer than ten pairs were run;
* ``unresolved (spread > bound)`` -- either side's interquartile range,
  as a share of its median, is wider than the bound, and not every change
  run reads better than every parent run;
* ``regressed`` -- the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` -- otherwise.

Results must repeat exactly: runs of one workload and seed must report one
``results_sha``, and traced runs the same value for every per-layer
metric that is not a host measurement. Failed runs, mismatches,
regressions and spreads wider than the bound make the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Units of host measurements; a metric in any other unit must repeat
#: exactly for a given seed.
HOST_UNITS = frozenset({"s", "1/s", "x", "MB"})

#: Fewest run pairs on which a gain may be claimed.
MIN_PAIRS = 10


@dataclass(frozen=True)
class Run:
    path: str
    workload: str
    seed: int
    trace: int
    results_sha: str
    correct: bool
    metrics: dict[str, float]


def load_run(path: Path) -> Run:
    """Parse the info and result lines from one run's saved stdout."""
    objects = [
        json.loads(line) for line in path.read_text().splitlines()
        if line.startswith("{")
    ]
    info = next(obj for obj in objects if "workload" in obj)
    result = objects[-1]
    return Run(
        path=str(path),
        workload=info["workload"],
        seed=info["seed"],
        trace=info["trace"],
        results_sha=info["results_sha"],
        correct=bool(result["correct"]) and result["failed"] == 0,
        metrics={name: m["value"] for name, m in result["metrics"].items()},
    )


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """Judge one metric on one workload (see the module docstring)."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if sign * (cm - pm) < 0 and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        if len(pairs) < MIN_PAIRS:
            return "unresolved (too few pairs)"
        return "improved"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if spread > bound and not all_better:
        return "unresolved (spread > bound)"
    if sign * (cm - pm) / abs(pm) > bound:
        return "regressed"
    return "within bound"


def _by_seed(runs: Sequence[Run]) -> list[Run]:
    return sorted(runs, key=lambda run: run.seed)


def compare(parent: Sequence[Run], change: Sequence[Run],
            spec: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines and whether the change passes."""
    lines: list[str] = []
    ok = True
    for run in (*parent, *change):
        if not run.correct:
            lines.append(f"FAILED run: {run.path}")
            ok = False

    groups: dict[tuple[str, int], list[Run]] = {}
    for run in (*parent, *change):
        groups.setdefault((run.workload, run.seed), []).append(run)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for (workload, seed), runs in sorted(groups.items()):
        if len({run.results_sha for run in runs}) > 1:
            lines.append(f"MISMATCH {workload} seed {seed}: results_sha differs")
            ok = False
        traced = [run for run in runs if run.trace]
        for name, unit in layer_units.items():
            if unit in HOST_UNITS:
                continue
            if len({run.metrics.get(name) for run in traced}) > 1:
                lines.append(f"MISMATCH {workload} seed {seed}: {name} differs")
                ok = False

    workloads = sorted({run.workload for run in (*parent, *change)})
    for workload in workloads:
        base = _by_seed([r for r in parent if r.workload == workload and not r.trace])
        new = _by_seed([r for r in change if r.workload == workload and not r.trace])
        if not base or not new:
            lines.append(f"{workload}: no untraced runs on both sides")
            continue
        lines.append(f"{workload} (parent {len(base)} runs, change {len(new)} runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = [run.metrics[name] for run in base]
            after = [run.metrics[name] for run in new]
            judged = verdict(before, after, metric["better"], metric["bound"])
            # Too few pairs to claim a gain is still no regression.
            if judged in ("regressed", "unresolved (spread > bound)"):
                ok = False
            b1, bm, b3 = quartiles(before)
            a1, am, a3 = quartiles(after)
            lines.append(
                f"  {name:<12} {bm:12.5g} [{b1:.5g}, {b3:.5g}]  ->  "
                f"{am:12.5g} [{a1:.5g}, {a3:.5g}]  {(am - bm) / bm:+7.2%}  "
                f"{judged} (bound {metric['bound']:.0%}, {metric['unit']})"
            )
        base = [r for r in parent if r.workload == workload and r.trace]
        new = [r for r in change if r.workload == workload and r.trace]
        if base and new:
            lines.append("  per-layer host measurements (no bound), medians:")
            for name, unit in layer_units.items():
                bm = statistics.median(run.metrics[name] for run in base)
                am = statistics.median(run.metrics[name] for run in new)
                if unit in HOST_UNITS and (bm or am):
                    lines.append(f"    {name:<36} {bm:10.4g} -> {am:10.4g} {unit}")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    lines, ok = compare(
        [load_run(path) for path in args.parent],
        [load_run(path) for path in args.change],
        spec,
    )
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
