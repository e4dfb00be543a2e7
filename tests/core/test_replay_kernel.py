"""The replay kernel against the per-access loop it replaced.

:meth:`NetworkedCacheSystem.replay` takes each access from the engine as a
plain tuple, keeps a running core's retirement clock and latency sums in
locals, and tallies the six span legs per distinct tuple until
:meth:`TransactionEngine.fold_spans` adds them to their histograms. The
reference below is the loop as it was written before: per access
``array.access`` -> ``engine.execute`` -> :class:`AccessTiming` ->
:meth:`IssueModel.complete` / :meth:`IssueModel.issue_time` ->
:meth:`LatencyAccumulator.record` -> :func:`record_access`, with the span
legs folded after every access. Both loops run on two identically built
systems, and every observable must agree.
"""

from dataclasses import asdict
from heapq import heapify, heappop, heappush
from itertools import chain, zip_longest

import pytest

from repro.cache.bankset import BankSetStats
from repro.cmp import core_attach_points
from repro.core.designs import DESIGN_NAMES, design_spec
from repro.core.flows import (
    FIGURE8_SCHEMES,
    SPAN_LEGS,
    AccessTiming,
    TransactionEngine,
)
from repro.core.system import NetworkedCacheSystem, record_access, resolve_warmup
from repro.perf.ipc import IssueModel
from repro.perf.metrics import LatencyAccumulator
from repro.telemetry import trace as trace_mod
from repro.telemetry.registry import SPAN_CYCLE_EDGES, Histogram
from repro.workloads import TraceGenerator, profile_by_name
from repro.workloads.profiles import BENCHMARK_NAMES

MEASURE = 300
DEEP_MEASURE = 2_000
#: The seeds bench_seed_robustness.py runs the halo-vs-mesh claim at.
DEEP_SEEDS = (1, 7, 42)


def reference_replay(system, cores):
    """The per-access replay loop: one :class:`AccessTiming` per access and
    one update call per accumulator."""
    warmups = [resolve_warmup(warmup, len(trace)) for trace, warmup, _, _ in cores]
    decode = system.mapper.decode_columns
    warming = []
    measured = []
    for (trace, _, _, _), warmup in zip(cores, warmups):
        columns, indexes, tags = decode(trace.addresses)
        writes = trace.writes
        warming.append(zip(
            columns[:warmup], indexes[:warmup], tags[:warmup], writes[:warmup],
        ))
        measured.append(zip(
            columns[warmup:], indexes[warmup:], tags[warmup:],
            writes[warmup:], trace.gaps[warmup:],
        ))
    array = system.array
    for row in chain.from_iterable(zip_longest(*warming)):
        if row is not None:
            array.access(*row)
    engine = system.engine
    if any(warmups):
        array.stats = BankSetStats()
        system.memory.reset()
        system.geometry.reset_contention()
        engine.reset()
        engine.metrics.reset()
    series = system._series
    latencies = [LatencyAccumulator() for _ in cores]
    heap = []
    for core, rows in enumerate(measured):
        row = next(rows)
        heap.append((cores[core][2].issue_time(row[4]), core, row))
    heapify(heap)
    while heap:
        issue_time, core, row = heappop(heap)
        _, _, issue, node = cores[core]
        latency = latencies[core]
        rows = measured[core]
        while True:
            column, index, tag, is_write, _ = row
            early_miss = False
            if system.partial_tags is not None:
                state = array.set_state(column, index)
                early_miss = system.partial_tags.is_guaranteed_miss(
                    state, tag, actual_hit=state.find(tag) is not None
                )
            outcome = array.access(column, index, tag, is_write)
            run = engine.execute_early_miss if early_miss else engine.execute
            timing = AccessTiming.of(
                issue_time,
                run(column, index, outcome, issue_time, is_write, node),
            )
            engine.fold_spans()
            issue.complete(timing.data_at_core, is_write=is_write)
            latency.record(
                latency=timing.transaction_latency,
                hit=timing.hit,
                bank=timing.bank_cycles,
                network=timing.network_cycles,
                memory=timing.memory_cycles,
                bank_position=timing.bank_position,
            )
            if series is not None:
                record_access(series, issue_time, timing)
            row = next(rows, None)
            if row is None:
                break
            issue_time = issue.issue_time(row[4])
            if heap and (issue_time, core) > heap[0][:2]:
                heappush(heap, (issue_time, core, row))
                break
    return latencies


def _workload(benchmark, seed, measure):
    profile = profile_by_name(benchmark)
    trace, warmup = TraceGenerator(profile, seed=seed).generate_with_warmup(
        measure=measure
    )
    return profile, trace, warmup


def _observe(system, cores, latencies):
    return {
        "latencies": [asdict(latency) for latency in latencies],
        "issue": [
            (issue.finish(), issue.instructions, issue.clock, issue.last_event)
            for _, _, issue, _ in cores
        ],
        "contents": system.array.contents_digest(),
        "metrics": system.collect_metrics(),
    }


def _assert_kernel_matches(build, workloads, nodes=None, hide_cycles=0):
    """Replay *workloads*, one ``(profile, trace, warmup)`` per core, on a
    system from *build* through the kernel and through the reference."""
    nodes = nodes or [None] * len(workloads)
    observed = []
    for replay in (NetworkedCacheSystem.replay, reference_replay):
        system = build()
        cores = [
            (trace, warmup,
             IssueModel(perfect_ipc=profile.perfect_l2_ipc,
                        hide_cycles=hide_cycles),
             node)
            for (profile, trace, warmup), node in zip(workloads, nodes)
        ]
        latencies = replay(system, cores)
        observed.append(_observe(system, cores, latencies))
    kernel, reference = observed
    assert kernel == reference
    assert all(
        latency["total_count"] == len(trace) - warmup
        for latency, (_, trace, warmup) in zip(kernel["latencies"], workloads)
    )
    return kernel


def _rotated_cells():
    """Every (design, scheme) pair of Figure 8, each on another Table-2
    benchmark: multicast pairs on the even positions and unicast pairs on
    the odd ones, as the benchmark harness's grids rotate them."""
    cells = []
    for offset, cast in ((0, "multicast"), (1, "unicast")):
        pairs = [
            (design, scheme)
            for design in DESIGN_NAMES
            for scheme in FIGURE8_SCHEMES
            if scheme.startswith(cast)
        ]
        cells += [
            (design, scheme,
             BENCHMARK_NAMES[(2 * k + offset) % len(BENCHMARK_NAMES)])
            for k, (design, scheme) in enumerate(pairs)
        ]
    return cells


def _check_cell(design, scheme, program, seed, measure):
    workload = _workload(program, seed, measure)
    kernel = _assert_kernel_matches(
        lambda: NetworkedCacheSystem(design=design, scheme=scheme), [workload]
    )
    assert kernel["latencies"][0]["hit_count"] > 0


@pytest.mark.parametrize("design,scheme,program", _rotated_cells())
def test_design_scheme_cell_matches_reference(design, scheme, program):
    _check_cell(design, scheme, program, seed=5, measure=MEASURE)


@pytest.mark.slow
@pytest.mark.parametrize("seed", DEEP_SEEDS)
@pytest.mark.parametrize("design,scheme,program", _rotated_cells())
def test_design_scheme_cell_matches_reference_deep(design, scheme, program, seed):
    _check_cell(design, scheme, program, seed=seed, measure=DEEP_MEASURE)


def test_static_nuca_cell_matches_reference():
    workload = _workload("mcf", 5, MEASURE)
    _assert_kernel_matches(
        lambda: NetworkedCacheSystem(design="A", scheme="static-nuca"),
        [workload],
    )


def test_early_miss_cell_matches_reference():
    workload = _workload("mcf", 5, MEASURE)
    kernel = _assert_kernel_matches(
        lambda: NetworkedCacheSystem(
            design="A", scheme="unicast+lru", early_miss_detection=True
        ),
        [workload],
    )
    assert kernel["metrics"]["cache.partial_tags.early_misses"]["value"] > 0


@pytest.mark.parametrize("num_cores", [2, 4])
def test_cmp_cell_matches_reference(num_cores):
    # Cores yield to each other whenever another core's access issues
    # first, so every core's locals are written back many times.
    spec = design_spec("C")
    benchmarks = ("twolf", "vpr", "art", "galgel")[:num_cores]
    workloads = [
        _workload(name, 1 + core, MEASURE) for core, name in enumerate(benchmarks)
    ]
    _assert_kernel_matches(
        lambda: NetworkedCacheSystem(design=spec, scheme="multicast+fast_lru"),
        workloads,
        nodes=core_attach_points(spec, num_cores),
    )


def test_hidden_latency_cell_matches_reference():
    workload = _workload("applu", 5, MEASURE)
    kernel = _assert_kernel_matches(
        lambda: NetworkedCacheSystem(design="F", scheme="multicast+fast_lru"),
        [workload],
        hide_cycles=12,
    )
    plain = _assert_kernel_matches(
        lambda: NetworkedCacheSystem(design="F", scheme="multicast+fast_lru"),
        [workload],
    )
    assert kernel["issue"][0][0] != plain["issue"][0][0]


def test_windowed_cell_matches_reference():
    workload = _workload("art", 5, MEASURE)
    kernel = _assert_kernel_matches(
        lambda: NetworkedCacheSystem(
            design="B", scheme="unicast+fast_lru", window=32
        ),
        [workload],
    )
    assert any(name.startswith("cache.series.") for name in kernel["metrics"])


def test_network_leg_clamps_at_zero(monkeypatch):
    # No flow charges more bank and memory cycles than its transaction
    # takes, so the case the network leg's clamp exists for is planted:
    # every access that completes on an even cycle reports a bank leg
    # longer than its whole transaction.
    execute = TransactionEngine.execute
    inflated = []

    def overcharged(self, *args):
        data_at_core, completion, settled, bank, memory, hit_bank = execute(
            self, *args
        )
        if completion % 2 == 0:
            bank += completion
            inflated.append(bank)
        return data_at_core, completion, settled, bank, memory, hit_bank

    monkeypatch.setattr(TransactionEngine, "execute", overcharged)
    workload = _workload("twolf", 5, MEASURE)
    _assert_kernel_matches(
        lambda: NetworkedCacheSystem(design="A", scheme="unicast+lru"), [workload]
    )
    assert inflated


class _Recorder(trace_mod.TraceSink):
    """In-memory sink: every event's name, category and duration."""

    enabled = True

    def __init__(self) -> None:
        self.events = []

    def emit(self, name, cat, ts, tid=0, ph="i", dur=None, args=None):
        self.events.append((name, cat, dur))


class TestSpanTally:
    """The tally folds to what recording every leg of every access gives."""

    @pytest.mark.parametrize(
        "design,scheme",
        [("A", "multicast+fast_lru"), ("F", "unicast+lru"), ("D", "unicast+promotion")],
    )
    def test_folded_histograms_match_recorded_legs(self, design, scheme):
        profile, trace, warmup = _workload("galgel", 3, MEASURE)
        system = NetworkedCacheSystem(design=design, scheme=scheme)
        recorder = _Recorder()
        previous = trace_mod.set_sink(recorder)
        try:
            system.run(trace, profile, warmup=warmup)
        finally:
            trace_mod.set_sink(previous)
        rebuilt = {leg: Histogram(SPAN_CYCLE_EDGES) for leg in SPAN_LEGS}
        for name, cat, dur in recorder.events:
            if cat == "cache.span":
                rebuilt[name].record(dur)
        folded = system.collect_metrics()
        for leg in SPAN_LEGS:
            assert folded[f"cache.span.{leg}"] == rebuilt[leg].snapshot()
            assert rebuilt[leg].count == MEASURE
        # The tally is empty once folded: folding again changes nothing.
        system.engine.fold_spans()
        assert system.collect_metrics() == folded

    def test_reset_drops_an_unfolded_tally(self):
        profile, trace, warmup = _workload("art", 3, MEASURE)
        system = NetworkedCacheSystem(design="A", scheme="unicast+fast_lru")
        system.run(trace, profile, warmup=warmup)
        before = system.collect_metrics()
        engine = system.engine
        columns, indexes, tags = system.mapper.decode_columns(trace.addresses[:50])
        for at, (column, index, tag) in enumerate(zip(columns, indexes, tags)):
            outcome = system.array.access(column, index, tag)
            engine.execute(column, index, outcome, 10**7 + at)
        engine.reset()
        engine.fold_spans()
        after = system.collect_metrics()
        for leg in SPAN_LEGS:
            assert after[f"cache.span.{leg}"] == before[f"cache.span.{leg}"]
