"""Runtime benchmark for the experiment engine and the simulator hot path.

Standalone (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_runtime.py [--measure N] [--jobs N]

Times the fixed Fig.-9 reference sweep three ways -- serial, parallel
(``--jobs``, default every core), and a warm persistent cache -- checks the
three produce bit-identical results, and microbenchmarks
:meth:`Resource.acquire` on a dense 10k-interval workload against the
seed's linear-scan placement. Human-readable output goes to
``benchmarks/out/runtime.txt``; machine-readable numbers to
``BENCH_runtime.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.core.designs import DESIGN_NAMES
from repro.experiments.cache import ResultCache
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import reset_memo, run_cells, spec_for
from repro.sim.resource import Resource

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

SWEEP_BENCHMARKS = ("art", "twolf", "mcf")
SWEEP_SCHEME = "multicast+fast_lru"


def _sweep_specs(measure: int):
    """The Fig.-9 reference sweep: every design, one scheme, 3 benchmarks."""
    config = ExperimentConfig(measure=measure)
    return [
        spec_for(design, SWEEP_SCHEME, benchmark, config)
        for design in DESIGN_NAMES
        for benchmark in SWEEP_BENCHMARKS
    ]


def _signature(results) -> list:
    return [
        (r.design, r.scheme, r.cycles, r.ipc, r.average_latency, r.hit_rate)
        for r in results
    ]


def bench_sweep(measure: int, jobs: int) -> dict:
    specs = _sweep_specs(measure)

    reset_memo()
    t0 = time.perf_counter()
    serial = run_cells(specs, jobs=1, cache=None)
    serial_s = time.perf_counter() - t0

    reset_memo()
    t0 = time.perf_counter()
    parallel = run_cells(specs, jobs=jobs, cache=None)
    parallel_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(directory=tmp)
        reset_memo()
        t0 = time.perf_counter()
        run_cells(specs, jobs=1, cache=cache)
        cold_cache_s = time.perf_counter() - t0
        reset_memo()
        t0 = time.perf_counter()
        warm = run_cells(specs, jobs=1, cache=cache)
        warm_cache_s = time.perf_counter() - t0
        assert cache.stats.hits == len(specs), cache.stats

    identical = (
        _signature(serial) == _signature(parallel) == _signature(warm)
    )
    return {
        "cells": len(specs),
        "measure": measure,
        "jobs": jobs,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "cold_cache_s": round(cold_cache_s, 3),
        "warm_cache_s": round(warm_cache_s, 3),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "warm_cache_speedup": round(serial_s / warm_cache_s, 2),
        "bit_identical": identical,
    }


class _LinearScanResource:
    """The seed's Resource placement: a linear walk over (start, end) pairs.

    Kept here (not in repro) purely as the microbenchmark baseline.
    """

    def __init__(self) -> None:
        self._intervals: list[tuple[int, int]] = []

    def acquire(self, time: int, duration: int) -> int:
        start = max(time, 0)
        intervals = self._intervals
        placed_at = None
        for i, (busy_start, busy_end) in enumerate(intervals):
            if start + duration <= busy_start:
                placed_at = i
                break
            start = max(start, busy_end)
        if placed_at is None:
            intervals.append((start, start + duration))
        else:
            intervals.insert(placed_at, (start, start + duration))
        return start


def _acquire_workload(n: int) -> list[tuple[int, int]]:
    """A dense reservation pattern: many arrivals land on busy intervals."""
    rng = random.Random(20070212)
    horizon = n * 2  # ~50% raw occupancy => long busy runs, real gaps
    return [(rng.randrange(horizon), rng.randrange(1, 4)) for _ in range(n)]


def bench_acquire(n: int = 10_000) -> dict:
    requests = _acquire_workload(n)

    baseline = _LinearScanResource()
    t0 = time.perf_counter()
    expected = [baseline.acquire(t, d) for t, d in requests]
    linear_s = time.perf_counter() - t0

    optimized = Resource("bench")  # no floor clock: intervals accumulate
    t0 = time.perf_counter()
    got = [optimized.acquire(t, d) for t, d in requests]
    bisect_s = time.perf_counter() - t0

    assert got == expected, "bisect placement diverged from linear scan"
    return {
        "intervals": n,
        "linear_scan_s": round(linear_s, 3),
        "bisect_s": round(bisect_s, 3),
        "speedup": round(linear_s / bisect_s, 1),
        "identical_grants": True,
    }


def bench_telemetry(measure: int) -> dict:
    """Telemetry overhead on one cell: disabled vs JSONL-traced.

    ``disabled_overhead`` is the regression the ISSUE bounds at 5%: the
    cost of having instrumentation compiled in but no sink installed,
    relative to the best observed cell time. ``traced_ratio`` is the
    opt-in price of full JSONL tracing.
    """
    from repro.experiments.runner import execute_cell
    from repro.telemetry import open_sink, set_sink

    spec = _sweep_specs(measure)[0]
    execute_cell(spec)  # warm trace/import caches outside timed runs

    def timed(repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            execute_cell(spec)
            best = min(best, time.perf_counter() - t0)
        return best

    disabled_s = timed()
    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        sink = open_sink(pathlib.Path(tmp) / "cell.jsonl", "jsonl")
        previous = set_sink(sink)
        try:
            traced_s = timed()
        finally:
            set_sink(previous)
            sink.close()
        events = sink.events_written
    return {
        "measure": measure,
        "disabled_cell_s": round(disabled_s, 4),
        "traced_cell_s": round(traced_s, 4),
        "traced_ratio": round(traced_s / disabled_s, 3),
        "trace_events": events,
    }


def bench_windowed(measure: int, window: int = 64) -> dict:
    """Windowed-series overhead on one cell: window=0 vs window=N.

    ``windowed_ratio`` is the price of sampling every access into
    per-window Series metrics; the off path must stay free (the guard
    test bounds ``windowed_ratio`` and checks the window=0 snapshot
    carries no series at all).
    """
    from repro.experiments.runner import execute_cell

    config = ExperimentConfig(measure=measure)
    plain_spec = spec_for("A", SWEEP_SCHEME, "art", config)
    windowed_spec = spec_for(
        "A", SWEEP_SCHEME, "art", config, window=window
    )
    execute_cell(plain_spec)  # warm trace/import caches

    def timed(spec, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            execute_cell(spec)
            best = min(best, time.perf_counter() - t0)
        return best

    plain_s = timed(plain_spec)
    windowed_s = timed(windowed_spec)
    result = execute_cell(windowed_spec)
    series_keys = [
        key for key in result.metrics if key.startswith("cache.series.")
    ]
    return {
        "measure": measure,
        "window": window,
        "plain_cell_s": round(plain_s, 4),
        "windowed_cell_s": round(windowed_s, 4),
        "windowed_ratio": round(windowed_s / plain_s, 3),
        "series_metrics": len(series_keys),
    }


def render(payload: dict) -> str:
    sweep, acquire = payload["sweep"], payload["acquire"]
    lines = [
        "Engine runtime benchmark",
        "========================",
        f"host: {payload['host']['platform']}, "
        f"{payload['host']['cpu_count']} core(s), "
        f"python {payload['host']['python']}",
        "",
        f"Reference sweep: {sweep['cells']} cells "
        f"({len(DESIGN_NAMES)} designs x {SWEEP_SCHEME} x "
        f"{len(SWEEP_BENCHMARKS)} benchmarks), "
        f"measure={sweep['measure']}",
        f"  serial          {sweep['serial_s']:8.3f} s",
        f"  parallel (j={sweep['jobs']})  {sweep['parallel_s']:8.3f} s  "
        f"(x{sweep['parallel_speedup']:.2f})",
        f"  cold cache      {sweep['cold_cache_s']:8.3f} s",
        f"  warm cache      {sweep['warm_cache_s']:8.3f} s  "
        f"(x{sweep['warm_cache_speedup']:.2f})",
        f"  bit-identical across modes: {sweep['bit_identical']}",
        "",
        f"Resource.acquire, dense {acquire['intervals']}-interval workload:",
        f"  linear scan (seed) {acquire['linear_scan_s']:8.3f} s",
        f"  bisect placement   {acquire['bisect_s']:8.3f} s  "
        f"(x{acquire['speedup']:.1f})",
        f"  identical grants: {acquire['identical_grants']}",
    ]
    telemetry = payload.get("telemetry")
    if telemetry:
        lines += [
            "",
            f"Telemetry, one cell at measure={telemetry['measure']}:",
            f"  disabled (null sink) {telemetry['disabled_cell_s']:8.4f} s",
            f"  JSONL traced         {telemetry['traced_cell_s']:8.4f} s  "
            f"(x{telemetry['traced_ratio']:.2f}, "
            f"{telemetry['trace_events']} events)",
        ]
    windowed = payload.get("windowed_telemetry")
    if windowed:
        lines += [
            "",
            f"Windowed series, one cell at measure={windowed['measure']}, "
            f"window={windowed['window']}:",
            f"  window off           {windowed['plain_cell_s']:8.4f} s",
            f"  window on            {windowed['windowed_cell_s']:8.4f} s  "
            f"(x{windowed['windowed_ratio']:.2f}, "
            f"{windowed['series_metrics']} series)",
        ]
    array_core = payload.get("array_core")
    if array_core:
        lines += [
            "",
            "Array (SoA) flit core vs object reference core:",
            f"  per-cell (protocol-paced) x{array_core['per_cell_speedup']:.1f}, "
            f"saturated-mesh floor x{array_core['min_speedup']:.1f}, "
            f"bit-identical: {array_core['bit_identical']}",
        ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", type=int, default=2000,
                        help="measured accesses per cell (default 2000)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel worker count (0 = all cores)")
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)

    payload = {
        "host": {
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "sweep": bench_sweep(args.measure, jobs),
        "acquire": bench_acquire(),
        "telemetry": bench_telemetry(args.measure),
        "windowed_telemetry": bench_windowed(args.measure),
    }
    from bench_arraycore import bench_array_core

    payload["array_core"] = bench_array_core(packets=400)

    text = render(payload)
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "runtime.txt").write_text(text + "\n", encoding="utf-8")

    # Merge over the existing payload so sections owned by the sibling
    # benchmarks (e.g. ``faults``) survive a runtime-only refresh.
    bench_path = ROOT / "BENCH_runtime.json"
    merged = (
        json.loads(bench_path.read_text()) if bench_path.exists() else {}
    )
    merged.update(payload)
    bench_path.write_text(
        json.dumps(merged, indent=2) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
