"""Workloads, the measurement loop and the metrics of the benchmark.

A workload is a fixed list of *units*, each one independent simulation
run: a figure cell, a ``repro serve`` cell, or one NoC load point on one
flit core. One *pass* runs every unit once, one after another in this
process (``jobs=1``). A run makes a fixed number of complete passes,
set by :func:`pass_count` from the run length and the workload alone.
Engine workloads start each pass with an empty in-process memo and a new
on-disk :class:`~repro.experiments.cache.ResultCache`, so every pass pays
what a first ``python -m repro`` run pays: trace generation, simulation,
cache writes and telemetry merges.

Each unit's time is divided by the host's slowdown measured just before
and after it (:mod:`hostspeed`), which turns it into seconds of the quiet
reference host. A unit's time in a run is the median of these corrected
repetitions; every unit gets the same number of them, and so does every
commit however fast its code is.

Each unit's result is checked, and its deterministic observables are
hashed. Every later pass, the traced passes and the warm cache replay must
hash identically to the first pass.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Iterator, Protocol, Sequence

import hostspeed
import layers
import repro
from repro import telemetry
from repro.core.designs import DESIGN_NAMES
from repro.experiments import runner
from repro.experiments.cache import ResultCache, code_fingerprint
from repro.experiments.common import ExperimentConfig
from repro.experiments.noc_load import run_load_point
from repro.stream.engine import stream_spec_for
from repro.stream.service import ADMISSION_POLICIES
from repro.workloads.profiles import BENCHMARK_NAMES

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Fewest set-ups timed per untraced run, each in a fresh interpreter.
SETUP_REPEATS = 5

#: Seconds one untraced pass of each workload takes on the quiet reference
#: host (README.md, "Baseline"), calibrations included. Only
#: :func:`pass_count` reads them.
PASS_S: dict[str, float] = {
    "grid-multicast": 6.5,
    "grid-unicast": 4.0,
    "serve-sweep": 4.1,
    "noc-load": 4.6,
}

#: Metrics of an untraced run: name -> unit.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_p50_s": "s",
    "cell_max_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict[str, str]:
    units = {"trace_overhead_ratio": "x"}
    for target in layers.LAYERS:
        units[f"{target.layer}_s"] = "s"
        if target.count is not None:
            units[target.count] = "count"
    units.update({
        "sim.resource.acquires_per_txn": "ratio",
        "sim.resource.channel_wait_frac": "ratio",
        "sim.resource.queued_cycles_per_txn": "cycles",
        "cache.hit_rate": "ratio",
        "workloads.accesses": "count",
        "experiments.overhead_s": "s",
        "experiments.replay_s": "s",
        "experiments.result_kb": "kB",
        "stream.requests": "count",
        "stream.reject_frac": "ratio",
        "stream.queue_high_water": "count",
        "noc.object.pkts_per_s": "1/s",
        "noc.array.pkts_per_s": "1/s",
    })
    return units


#: Metrics of a traced run: name -> unit. Host-time units are ``s``,
#: ``1/s`` and ``x``; every other metric is a pure function of the seed.
PER_LAYER: dict[str, str] = _per_layer()


class Workload(Protocol):
    """What :func:`measure` needs from a workload."""

    #: True when units run through the experiment engine and its cache.
    engine: ClassVar[bool]

    def units(self, seed: int) -> list[Any]:
        """The units of one pass, in order, built from *seed*."""

    def execute(self, unit: Any, cache: ResultCache) -> Any:
        """Run one unit from scratch and return its result."""

    def label(self, unit: Any) -> str:
        """The unit's name in failure messages and spans."""

    def check(self, unit: Any, result: Any) -> str | None:
        """Why *result* is wrong, or None."""

    def observables(self, result: Any) -> dict[str, Any]:
        """The deterministic part of *result*, hashed into ``results_sha``."""

    def work(self, result: Any) -> int:
        """Units of work *result* completed, for ``work_per_s``."""

    def cross_check(self, units: Sequence[Any],
                    results: Sequence[Any]) -> dict[int, str]:
        """Unit index -> why it disagrees with another unit of the pass."""

    def result_layers(self, units: Sequence[Any], results: Sequence[Any],
                      seconds: Sequence[float]) -> dict[str, float]:
        """Per-layer metrics taken from one complete untraced pass."""


def _digest(observables: dict[str, Any]) -> str:
    blob = json.dumps(observables, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _EngineCells:
    """Units are experiment-engine specs, each run through ``run_cells``."""

    engine: ClassVar[bool] = True

    @staticmethod
    def execute(spec: Any, cache: ResultCache) -> Any:
        return runner.run_cells([spec], jobs=1, cache=cache)[0]

    @staticmethod
    def cross_check(units: Sequence[Any], results: Sequence[Any]) -> dict[int, str]:
        return {}


@dataclass(frozen=True)
class Grid(_EngineCells):
    """Figure cells on the transaction-level model."""

    #: (design, scheme, benchmark) of each cell.
    cells: tuple[tuple[str, str, str], ...]
    measure: int = 10_000

    def units(self, seed: int) -> list[Any]:
        config = ExperimentConfig(measure=self.measure, seed=seed)
        return [
            runner.spec_for(design, scheme, benchmark, config)
            for design, scheme, benchmark in self.cells
        ]

    @staticmethod
    def label(spec: Any) -> str:
        return f"{spec.design}/{spec.scheme}/{spec.benchmark}"

    @staticmethod
    def check(spec: Any, result: Any) -> str | None:
        if result.accesses != spec.measure:
            return f"accesses {result.accesses} != measure {spec.measure}"
        return None

    @staticmethod
    def observables(result: Any) -> dict[str, Any]:
        return {
            "design": result.design,
            "scheme": result.scheme,
            "benchmark": result.benchmark,
            "accesses": result.accesses,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "ipc": result.ipc,
            "memory_reads": result.memory_reads,
            "memory_writebacks": result.memory_writebacks,
            "contents_digest": result.contents_digest,
            "metrics": result.metrics,
        }

    @staticmethod
    def work(result: Any) -> int:
        """Simulated transactions (measured accesses)."""
        return result.accesses

    @staticmethod
    def result_layers(units: Sequence[Any], results: Sequence[Any],
                      seconds: Sequence[float]) -> dict[str, float]:
        txns = waits = grants = queued = hits = 0
        for result in results:
            counters = result.metrics
            txns += result.accesses
            hits += result.latency.hit_count
            waits += counters["noc.router.vc_alloc_failures"]["value"]
            queued += (
                counters["noc.router.vc_alloc_wait_cycles"]["value"]
                + counters["cache.bank.wait_cycles"]["value"]
            )
            grants += sum(
                counter["value"]
                for name, counter in counters.items()
                if name.startswith("noc.link.grants.")
            )
        traces = {}
        for spec in units:
            trace, _ = runner.trace_with_warmup(spec)
            traces[trace.name] = len(trace)
        return {
            "sim.resource.channel_wait_frac": waits / grants,
            "sim.resource.queued_cycles_per_txn": queued / txns,
            "cache.hit_rate": hits / txns,
            "workloads.accesses": sum(traces.values()),
        }


#: Tenant mix of every serve cell: two bursty tenants.
SERVE_MIX = "duo-bursty"


@dataclass(frozen=True)
class Serve(_EngineCells):
    """``repro serve`` cells on the array flit core."""

    designs: tuple[str, ...] = ("C", "F")
    policies: tuple[str, ...] = ADMISSION_POLICIES
    loads: tuple[float, ...] = (1.0, 2.0, 4.0)
    cycles: int = 10_000

    def units(self, seed: int) -> list[Any]:
        return [
            stream_spec_for(
                design, policy, SERVE_MIX,
                seed=seed, cycles=self.cycles, load=load, core="array",
            )
            for design in self.designs
            for policy in self.policies
            for load in self.loads
        ]

    @staticmethod
    def label(spec: Any) -> str:
        return f"{spec.design}/{spec.scheme}/load{spec.load:g}"

    @staticmethod
    def check(spec: Any, result: Any) -> str | None:
        if result.offered != result.admitted + result.rejected:
            return (f"offered {result.offered} != admitted {result.admitted}"
                    f" + rejected {result.rejected}")
        if result.admitted != result.completed:
            return f"admitted {result.admitted} != completed {result.completed}"
        return None

    @staticmethod
    def observables(result: Any) -> dict[str, Any]:
        return {
            "design": result.design,
            "scheme": result.scheme,
            "benchmark": result.benchmark,
            "summary": result.summary,
            "metrics": result.metrics,
        }

    @staticmethod
    def work(result: Any) -> int:
        """Completed requests."""
        return result.completed

    @staticmethod
    def result_layers(units: Sequence[Any], results: Sequence[Any],
                      seconds: Sequence[float]) -> dict[str, float]:
        offered = sum(result.offered for result in results)
        return {
            "stream.requests": offered,
            "stream.reject_frac": sum(r.rejected for r in results) / offered,
            "stream.queue_high_water": max(
                result.summary["queue_high_water"] for result in results
            ),
        }


@dataclass(frozen=True)
class LoadPointSpec:
    core: str
    rate: float
    cycles: int
    seed: int


#: Flit cores every load point runs on; the first is the reference.
NOC_CORES = ("object", "array")


@dataclass(frozen=True)
class NocLoad:
    """The 8x8 uniform-random load curve on both flit cores."""

    rates: tuple[float, ...] = (0.02, 0.15, 0.30, 0.50)
    cycles: int = 400

    engine: ClassVar[bool] = False

    def units(self, seed: int) -> list[LoadPointSpec]:
        return [
            LoadPointSpec(core, rate, self.cycles, seed)
            for core in NOC_CORES
            for rate in self.rates
        ]

    @staticmethod
    def execute(spec: LoadPointSpec, cache: ResultCache) -> Any:
        return run_load_point(
            spec.rate, cycles=spec.cycles, seed=spec.seed, core=spec.core
        )

    @staticmethod
    def label(spec: LoadPointSpec) -> str:
        return f"{spec.core}@{spec.rate:.2f}"

    @staticmethod
    def check(spec: LoadPointSpec, result: Any) -> str | None:
        if result.delivered != result.offered:
            return f"delivered {result.delivered} != offered {result.offered}"
        return None

    @staticmethod
    def observables(result: Any) -> dict[str, Any]:
        return asdict(result)

    @staticmethod
    def work(result: Any) -> int:
        """Delivered packets."""
        return result.delivered

    @staticmethod
    def cross_check(units: Sequence[LoadPointSpec],
                    results: Sequence[Any]) -> dict[int, str]:
        """Every core must match the first core's load point exactly."""
        reference: dict[float, Any] = {}
        failures: dict[int, str] = {}
        for index, (spec, result) in enumerate(zip(units, results)):
            if result is None:
                continue
            expected = reference.setdefault(spec.rate, result)
            if result != expected:
                failures[index] = (
                    f"{spec.core} core differs from {units[0].core} core: "
                    f"{result} != {expected}"
                )
        return failures

    @staticmethod
    def result_layers(units: Sequence[LoadPointSpec], results: Sequence[Any],
                      seconds: Sequence[float]) -> dict[str, float]:
        layer: dict[str, float] = {}
        for core in {spec.core for spec in units}:
            members = [i for i, spec in enumerate(units) if spec.core == core]
            delivered = sum(results[i].delivered for i in members)
            layer[f"noc.{core}.pkts_per_s"] = delivered / sum(
                seconds[i] for i in members
            )
        return layer


def _every_other(points: Sequence[tuple[str, str]],
                 offset: int) -> tuple[tuple[str, str, str], ...]:
    """The k-th (design, scheme) point on Table-2 benchmark ``2k + offset``
    (positions wrap around)."""
    return tuple(
        (design, scheme, BENCHMARK_NAMES[(2 * k + offset) % len(BENCHMARK_NAMES)])
        for k, (design, scheme) in enumerate(points)
    )


_UNICAST = ("unicast+promotion", "unicast+lru", "unicast+fast_lru")

#: The full reproduction grid (84 multicast and 36 unicast cells) takes
#: minutes, so each grid is a sample of it. The sampled cells run different
#: benchmarks -- multicast the even Table-2 positions, unicast the odd
#: ones -- so each grid mixes FP and INT programs and small and large
#: footprints, and the two together cover all twelve. README.md compares
#: the samples' per-layer time shares with the full grids'.
WORKLOADS: dict[str, Workload] = {
    "grid-multicast": Grid(_every_other(
        [(design, "multicast+fast_lru") for design in DESIGN_NAMES]
        + [("A", "multicast+promotion")],
        offset=0,
    )),
    "grid-unicast": Grid(_every_other(
        [("A", scheme) for scheme in _UNICAST] * 2, offset=1,
    )),
    "serve-sweep": Serve(),
    "noc-load": NocLoad(),
}


# -- one pass ------------------------------------------------------------------


@dataclass
class Pass:
    """One run of a workload's units, in order."""

    #: Each unit's time as measured.
    seconds: list[float] = field(default_factory=list)
    #: The host's slowdown around each unit (:mod:`hostspeed`).
    slowdowns: list[float] = field(default_factory=list)
    #: None where the unit raised.
    results: list[Any] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    #: Unit index -> why that unit failed.
    failures: dict[int, str] = field(default_factory=dict)

    def corrected(self) -> list[float]:
        """Each unit's time in seconds of the quiet reference host."""
        return [s / k for s, k in zip(self.seconds, self.slowdowns)]

    def slowdown(self) -> float:
        """The host's slowdown over the whole pass."""
        return sum(self.seconds) / sum(self.corrected())

    def sha(self) -> str:
        blob = "\n".join(str(digest) for digest in self.digests)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_pass(
    workload: Workload,
    units: Sequence[Any],
    cache_dir: Path,
    tracer: layers.Tracer | None = None,
    parent: int | None = None,
) -> Pass:
    """Run every unit once, in order."""
    runner.reset_memo()
    telemetry.reset_global_metrics()
    # Garbage left by the previous pass must not inflate this pass's
    # memory peak or be collected on its clock.
    gc.collect()
    cache = ResultCache(directory=cache_dir)
    done = Pass()
    before = hostspeed.calibration_s()
    for index, unit in enumerate(units):
        label = workload.label(unit)
        span = (
            contextlib.nullcontext() if tracer is None
            else tracer.span(label, parent=parent)
        )
        failure = None
        with span:
            start = time.perf_counter()
            try:
                result = workload.execute(unit, cache)
            except Exception:
                # A unit that raises is counted as failed; the run goes on.
                traceback.print_exc(file=sys.stderr)
                result, failure = None, "raised"
            done.seconds.append(time.perf_counter() - start)
        after = hostspeed.calibration_s()
        done.slowdowns.append(hostspeed.slowdown(before, after))
        before = after
        if result is not None:
            failure = workload.check(unit, result)
        done.results.append(result)
        done.digests.append(
            None if result is None else _digest(workload.observables(result))
        )
        if failure is not None:
            done.failures[index] = f"{label}: {failure}"
    for index, failure in workload.cross_check(units, done.results).items():
        label = workload.label(units[index])
        done.failures.setdefault(index, f"{label}: {failure}")
    return done


@contextlib.contextmanager
def _cache_dir() -> Iterator[Path]:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="cache-") as path:
        yield Path(path)


def _compare(reference: Pass, later: Pass, units: Sequence[Any],
             workload: Workload, what: str) -> None:
    """Mark every unit of *later* whose result differs from *reference*."""
    for index, digest in enumerate(later.digests):
        if digest is not None and digest != reference.digests[index]:
            later.failures.setdefault(
                index, f"{workload.label(units[index])}: {what} differs from pass 1"
            )


# -- a whole run ---------------------------------------------------------------


def prepare() -> None:
    """The set-up every ``repro`` run pays once: imports, cache fingerprint."""
    for target in layers.LAYERS:
        importlib.import_module(target.module)
    code_fingerprint()


_FRESH_PREPARE = (
    "import sys, time; sys.path[:0] = {paths!r}; import hostspeed; "
    "before = hostspeed.calibration_s(); started = time.perf_counter(); "
    "import suite; suite.prepare(); elapsed = time.perf_counter() - started; "
    "print(elapsed / hostspeed.slowdown(before, hostspeed.calibration_s()))"
)


def _fresh_prepare_s() -> float:
    """Seconds of the reference host that the imports and :func:`prepare`
    take in a new interpreter."""
    paths = [str(Path(repro.__file__).parents[1]), str(Path(__file__).parent)]
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PREPARE.format(paths=paths)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def _end_to_end(workload: Workload, units: Sequence[Any], passes: Sequence[Pass],
                setup_s: float) -> dict[str, float]:
    samples: list[list[float]] = [[] for _ in units]
    for done in passes:
        for index, seconds in enumerate(done.corrected()):
            if index not in done.failures:
                samples[index].append(seconds)
    per_unit = [statistics.median(times) for times in samples if times]
    wall_s = sum(per_unit)
    work = sum(workload.work(r) for r in passes[0].results if r is not None)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cell_p50_s": statistics.median(per_unit) if per_unit else 0.0,
        "cell_max_s": max(per_unit, default=0.0),
        "work_per_s": work / wall_s if wall_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _replay(workload: Workload, units: Sequence[Any],
            cache_dir: Path) -> tuple[Pass, float]:
    """Warm replay of a finished pass from the cache it wrote, and its
    time in seconds of the reference host."""
    runner.reset_memo()
    telemetry.reset_global_metrics()
    before = hostspeed.calibration_s()
    start = time.perf_counter()
    results = runner.run_cells(
        list(units), jobs=1, cache=ResultCache(directory=cache_dir)
    )
    elapsed = time.perf_counter() - start
    replay = Pass(results=results)
    replay.digests = [_digest(workload.observables(r)) for r in results]
    return replay, elapsed / hostspeed.slowdown(before, hostspeed.calibration_s())


def _layer_values(workload: Workload, traced: Pass,
                  stats: tuple[dict[str, float], dict[str, int]]) -> dict[str, float]:
    """Per-layer self times (seconds of the reference host) and counts of
    one traced pass."""
    self_s, calls = stats
    slowdown = traced.slowdown()
    values: dict[str, float] = {}
    for target in layers.LAYERS:
        values[f"{target.layer}_s"] = self_s.get(target.layer, 0.0) / slowdown
        if target.count is not None:
            values[target.count] = calls.get(target.layer, 0)
    txns = calls.get("core.flows.execute", 0)
    if txns:
        values["sim.resource.acquires_per_txn"] = (
            calls.get("sim.resource.acquire", 0) / txns
        )
    if workload.engine:
        cell_s = sum(
            r.wall_s for r in traced.results if getattr(r, "wall_s", None)
        )
        values["experiments.overhead_s"] = (
            sum(traced.seconds) - cell_s - self_s.get("workloads.generate", 0.0)
        ) / slowdown
    return values


def _untraced_run(workload: Workload, units: Sequence[Any], count: int,
                  setups: list[float]) -> list[Pass]:
    """*count* passes.

    A fresh set-up is timed into *setups* before each pass, so the samples
    spread over the run instead of sharing one burst of host load.
    """
    passes: list[Pass] = []
    for _ in range(count):
        setups.append(_fresh_prepare_s())
        with _cache_dir() as cache_dir:
            done = run_pass(workload, units, cache_dir)
        if passes:
            _compare(passes[0], done, units, workload, "repeated result")
        passes.append(done)
    return passes


def _traced_run(name: str, workload: Workload, units: Sequence[Any], seed: int,
                count: int) -> tuple[list[Pass], dict[str, float]]:
    """An untraced reference pass and its cache replay, then *count*
    traced passes."""
    values: dict[str, float] = {}
    with _cache_dir() as cache_dir:
        reference = run_pass(workload, units, cache_dir)
        passes = [reference]
        complete = all(result is not None for result in reference.results)
        if complete:
            values.update(workload.result_layers(
                units, reference.results, reference.corrected()
            ))
        if complete and workload.engine:
            replay, values["experiments.replay_s"] = _replay(
                workload, units, cache_dir
            )
            _compare(reference, replay, units, workload, "cache replay")
            passes.append(replay)
            values["experiments.result_kb"] = sum(
                path.stat().st_size for path in cache_dir.glob("*.pkl")
            ) / 1024

    tracer = layers.Tracer()
    traced: list[Pass] = []
    per_pass: list[dict[str, float]] = []
    with layers.installed(tracer), tracer.span(name, seed=seed) as root:
        for number in range(1, count + 1):
            with _cache_dir() as cache_dir, tracer.span(
                f"pass {number}", parent=root
            ) as pass_id:
                done = run_pass(workload, units, cache_dir, tracer, parent=pass_id)
            _compare(reference, done, units, workload, "traced result")
            traced.append(done)
            per_pass.append(_layer_values(workload, done, tracer.take()))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_chrome_trace(OUT_DIR / f"{name}-seed{seed}.trace.json")

    for metric in per_pass[0]:
        values[metric] = statistics.median(p[metric] for p in per_pass)
    values["trace_overhead_ratio"] = statistics.median(
        sum(p.corrected()) for p in traced
    ) / sum(reference.corrected())
    return passes + traced, values


def pass_count(name: str, seconds: float) -> int:
    """Passes a run of *seconds* makes: as many as fit on the reference host.

    The count depends on the run length and the workload only, never on
    how fast the code under test is, so every commit gets the same number
    of repetitions.
    """
    return max(1, round(seconds / PASS_S[name]))


def measure(
    name: str,
    seed: int,
    passes: int,
    trace: bool,
    workload: Workload | None = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run *passes* passes of one workload; returns (info, result) as
    printed by ``run.py``. *workload* overrides the named workload's
    parameters (tests).
    """
    if workload is None:
        workload = WORKLOADS[name]
    prepare()
    before = hostspeed.calibration_s()
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        units = workload.units(seed)
        builds.append(time.perf_counter() - start)
    build_s = statistics.median(builds) / hostspeed.slowdown(
        before, hostspeed.calibration_s()
    )

    if trace:
        done, values = _traced_run(name, workload, units, seed, passes)
        unknown = set(values) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
        metrics = {
            metric: {"value": values.get(metric, 0), "unit": unit}
            for metric, unit in PER_LAYER.items()
        }
    else:
        setups: list[float] = []
        done = _untraced_run(workload, units, passes, setups)
        while len(setups) < SETUP_REPEATS:
            setups.append(_fresh_prepare_s())
        setup_s = statistics.median(setups) + build_s
        values = _end_to_end(workload, units, done, setup_s)
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in END_TO_END.items()
        }

    failures = [
        message for one in done for message in one.failures.values()
    ]
    attempted = sum(len(one.results) for one in done)
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": passes,
        "units": len(units),
        "results_sha": done[0].sha(),
        "failures": failures,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return info, result
