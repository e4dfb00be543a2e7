"""The streaming service: admission control, conservation, SLO telemetry."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.stream.arrivals import TenantSpec, generate_arrivals, tenant_mix
from repro.stream.service import (
    ADMISSION_POLICIES,
    REJECT_REASONS,
    StreamService,
    make_stream_series,
)
from repro.telemetry.registry import LATENCY_SLO_EDGES, MetricsRegistry
from repro.validation.differential import StreamWorkload, compare

CYCLES = 1200


def _run(design="C", *, mix="solo-poisson", load=1.0, core=None, **kwargs):
    service = StreamService(design, core=core, **kwargs)
    requests = generate_arrivals(tenant_mix(mix, load), CYCLES, seed=0)
    service.run(requests, CYCLES)
    return service


def _snapshot(service: StreamService) -> str:
    registry = MetricsRegistry()
    service.publish_metrics(registry)
    return json.dumps(registry.snapshot(), sort_keys=True)


class TestConfiguration:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            StreamService("C", policy="random-early")
        with pytest.raises(ConfigurationError):
            StreamService("C", window=0)
        with pytest.raises(ConfigurationError):
            StreamService("C", queue_limit=0)
        with pytest.raises(ConfigurationError):
            StreamService("C", max_outstanding=0)
        with pytest.raises(ConfigurationError):
            StreamService("C", token_rate=0.0)

    def test_stream_series_shapes(self):
        series = make_stream_series(32)
        assert series["stream.series.queue_depth"].agg == "max"
        latency = series["stream.series.latency"]
        assert latency.agg == "hist"
        assert latency.edges == LATENCY_SLO_EDGES


class TestConservation:
    @pytest.mark.parametrize("policy", ADMISSION_POLICIES)
    @pytest.mark.parametrize("design", ("A", "C", "F"))
    def test_offered_splits_exactly(self, design, policy):
        service = _run(design, mix="duo-bursty", policy=policy)
        rejected = sum(service.rejected.values())
        assert service.offered > 0
        assert service.offered == service.admitted + rejected
        assert service.admitted == service.completed

    def test_per_tenant_totals_sum_to_aggregate(self):
        service = _run(mix="trio-mixed")
        totals = {"offered": 0, "admitted": 0, "completed": 0}
        for stats in service._tenants.values():
            for key in totals:
                totals[key] += stats[key]
        assert totals["offered"] == service.offered
        assert totals["admitted"] == service.admitted
        assert totals["completed"] == service.completed

    def test_overload_rejects_at_the_queue(self):
        service = _run(
            mix="duo-bursty", load=6.0, queue_limit=4, max_outstanding=2
        )
        assert service.rejected["queue_full"] > 0
        assert service.queue_high_water == 4

    def test_token_bucket_sheds_before_the_queue(self):
        service = _run(
            mix="duo-bursty",
            load=6.0,
            policy="token-bucket",
            token_rate=0.02,
            token_burst=2.0,
        )
        assert service.rejected["throttled"] > 0

    def test_no_drain_leaves_work_in_flight_accounted(self):
        service = StreamService("C")
        requests = generate_arrivals(
            tenant_mix("solo-poisson", 4.0), CYCLES, seed=0
        )
        service.run(requests, CYCLES, drain=False)
        assert service.completed <= service.admitted


class TestDeterminism:
    def test_same_seed_same_snapshot(self):
        assert _snapshot(_run(mix="duo-bursty")) == _snapshot(
            _run(mix="duo-bursty")
        )

    @pytest.mark.parametrize("design", ("C", "F"))
    def test_cores_publish_identical_snapshots(self, design):
        workload = StreamWorkload(
            design, tenant_mix("duo-bursty"), cycles=CYCLES
        )
        divergence = compare(workload)
        assert divergence is None, divergence.render()


class TestReporting:
    def test_published_names_cover_the_contract(self):
        registry = MetricsRegistry()
        _run(mix="duo-bursty").publish_metrics(registry)
        snapshot = registry.snapshot()
        for name in (
            "stream.offered",
            "stream.admitted",
            "stream.completed",
            "stream.queue.high_water",
            "stream.series.offered",
            "stream.series.latency",
            "stream.series.queue_depth",
            "stream.series.tenant.media.latency",
            "stream.tenant.search.completed",
        ):
            assert name in snapshot, name
        for reason in REJECT_REASONS:
            assert f"stream.rejected.{reason}" in snapshot

    def test_summary_arithmetic(self):
        service = _run(mix="duo-bursty", load=3.0, queue_limit=8)
        summary = service.summary()
        rejected = sum(summary["rejected"].values())
        assert summary["offered"] == summary["admitted"] + rejected
        assert summary["availability"] == pytest.approx(
            summary["admitted"] / summary["offered"], abs=1e-6
        )
        assert summary["rejection_rate"] == pytest.approx(
            rejected / summary["offered"], abs=1e-6
        )
        assert summary["goodput_per_kcycle"] > 0
        quantiles = summary["quantiles"]
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
        assert set(summary["tenants"]) == {"media", "search"}

    def test_latency_counts_match_completions(self):
        service = _run(mix="solo-poisson")
        latency = service._series["stream.series.latency"]
        counted = sum(
            sum(counts) for counts in latency.windows.values()
        )
        assert counted == service.completed


class TestHaloMemoryLeg:
    def test_misses_complete_off_network(self):
        tenants = (
            TenantSpec(
                "cold",
                rate_per_kcycle=25.0,
                catalog_blocks=256,
                resident_fraction=0.2,
            ),
        )
        service = StreamService("F")
        requests = generate_arrivals(tenants, CYCLES, seed=0)
        assert any(not request.hit for request in requests)
        service.run(requests, CYCLES)
        assert service.admitted == service.completed
        assert not service._memory_heap
