"""Zero-overhead-when-disabled guards.

These are coarse regression tripwires, not precision benchmarks: each
timing is a best-of-N to shed scheduler noise, and the thresholds are
deliberately generous. What they catch is a category error -- an instrumentation site that builds
event payloads before checking ``sink.enabled``, or a hot-path metric that
turns O(1) bookkeeping into something visibly slower.
"""

import itertools
import timeit

from repro.sim.resource import Resource
from repro.telemetry import NULL_SINK, current_sink


def _best_of(stmt, repeat=7, number=20_000):
    return min(timeit.repeat(stmt, repeat=repeat, number=number))


class TestNullSinkFastPath:
    def test_null_sink_is_installed_and_disabled(self):
        assert current_sink() is NULL_SINK
        assert NULL_SINK.enabled is False

    def test_guarded_site_is_near_free(self):
        """A disabled event site must cost about one attribute check.

        Compares a loop body with the exact guard the instrumentation
        uses against a bare loop. 2.0x is far above what the guard
        actually costs (~1.05x) but far below what building event dicts
        per iteration would cost (>5x), so the tripwire is stable.
        """
        sink = NULL_SINK
        payload = {"packet": 1, "vc": 0}

        def bare():
            pass

        def guarded():
            if sink.enabled:
                sink.instant("traverse", "noc.flit", 0, tid=0, args=payload)

        bare_s = _best_of(bare)
        guarded_s = _best_of(guarded)
        assert guarded_s < bare_s * 2.0 + 1e-3

    def test_waits_counter_is_constant_bookkeeping(self):
        """The waits instrumentation must stay O(1) per acquire."""
        resource = Resource(name="m")
        for t in range(1000):
            resource.acquire(t, 2)  # every grant after the first queues
        assert resource.waits == 999
        assert resource.queued_cycles > 0
        resource.reset()
        assert resource.waits == 0

    def test_disabled_run_not_slower_than_traced(self, tmp_path):
        """A run with no sink must not cost more than a traced one.

        If an instrumentation site ever builds its event payloads before
        checking ``sink.enabled``, the disabled run pays tracing's CPU
        cost without its I/O and this ratio collapses toward 1; the
        traced run always does strictly more work, so disabled must win
        (1.10x headroom for timer noise).
        """
        from repro.core.system import NetworkedCacheSystem
        from repro.telemetry import open_sink, set_sink
        from repro.workloads import TraceGenerator, profile_by_name

        profile = profile_by_name("art")
        trace, warmup = TraceGenerator(profile, seed=3).generate_with_warmup(
            measure=300
        )

        def run_once():
            system = NetworkedCacheSystem(
                design="A", scheme="multicast+fast_lru"
            )
            system.run(trace, profile, warmup=warmup)

        trace_ids = itertools.count(1)

        def traced_once():
            sink = open_sink(tmp_path / f"t{next(trace_ids)}.jsonl", "jsonl")
            previous = set_sink(sink)
            try:
                run_once()
            finally:
                set_sink(previous)
                sink.close()

        run_once()  # warm caches/imports outside the timed region
        disabled_s = min(timeit.repeat(run_once, repeat=3, number=1))
        traced_s = min(timeit.repeat(traced_once, repeat=3, number=1))
        assert disabled_s < traced_s * 1.10


class TestWindowedSeriesOffPath:
    def test_window_off_records_no_series(self):
        """window=0 must leave zero Series footprint in the snapshot.

        The off path is the default for every sweep cell, so windowed
        telemetry being "off" must mean structurally absent -- no
        ``cache.series.*`` metrics, no per-access record() calls -- not
        merely empty.
        """
        from repro.core.system import NetworkedCacheSystem
        from repro.workloads import TraceGenerator, profile_by_name

        profile = profile_by_name("art")
        trace, warmup = TraceGenerator(profile, seed=3).generate_with_warmup(
            measure=200
        )
        system = NetworkedCacheSystem(design="A", scheme="multicast+fast_lru")
        assert system._series is None
        result = system.run(trace, profile, warmup=warmup)
        assert not [
            key for key in result.metrics if key.startswith("cache.series.")
        ]

    def test_windowed_run_overhead_is_bounded(self):
        """window=N stays cheap: a few dict ops per measured access.

        The 1.5x tripwire only catches a category error like
        per-access snapshotting.
        """
        from repro.core.system import NetworkedCacheSystem
        from repro.workloads import TraceGenerator, profile_by_name

        profile = profile_by_name("art")
        trace, warmup = TraceGenerator(profile, seed=3).generate_with_warmup(
            measure=300
        )

        def run_once(window=0):
            system = NetworkedCacheSystem(
                design="A", scheme="multicast+fast_lru", window=window
            )
            system.run(trace, profile, warmup=warmup)

        run_once()  # warm caches/imports outside the timed region
        plain_s = min(timeit.repeat(run_once, repeat=3, number=1))
        windowed_s = min(
            timeit.repeat(lambda: run_once(window=64), repeat=3, number=1)
        )
        assert windowed_s < plain_s * 1.5 + 1e-3
