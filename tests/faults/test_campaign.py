"""Campaign sweeps plus zero-fault bit-identity against the golden slice."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.flows import FIGURE8_SCHEMES
from repro.errors import ConfigurationError
from repro.faults import CampaignConfig, run_campaign

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "figure9_golden.json"
)
SCHEME = "multicast+fast_lru"


class TestCampaignConfig:
    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(rates=(2.0,))

    def test_empty_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(rates=())

    def test_sweep_always_includes_baseline(self):
        config = CampaignConfig(rates=(1e-2, 1e-3))
        assert config.sweep_rates() == (0.0, 1e-3, 1e-2)


def _golden_cell(design):
    return json.loads(GOLDEN_PATH.read_text())["cells"][design]


def _run_single(spec):
    from repro.experiments.runner import reset_memo, run_cells

    reset_memo()
    [result] = run_cells([spec], jobs=1, cache=None)
    reset_memo()
    return result


class TestZeroFaultBitIdentity:
    def test_zero_rates_match_golden_exactly(self):
        from repro.experiments.runner import CellSpec

        spec = CellSpec(
            design="A", scheme=SCHEME, benchmark="art",
            measure=150, seed=1, fault_seed=7,
        )
        assert not spec.has_faults
        result = _run_single(spec)
        golden = _golden_cell("A")
        assert result.contents_digest == golden["contents_digest"]
        assert result.cycles == golden["cycles"]
        assert result.ipc == golden["ipc"]
        assert json.loads(json.dumps(result.metrics)) == golden["metrics"]

    @pytest.mark.parametrize(
        "design, scheme, early_miss",
        [
            (design, scheme, False)
            for design in ("A", "F")
            for scheme in FIGURE8_SCHEMES
        ]
        + [("A", "unicast+lru", True)],
    )
    def test_null_sampled_plan_is_bit_identical(self, design, scheme, early_miss):
        # A vanishing rate still routes the build through the degraded
        # geometry, whose reserve_segment override sends every link of
        # every column walk through the per-segment path. With an empty
        # sampled plan it must not move a single cycle, digest bit or
        # metric relative to the pristine build's inline walks.
        from repro.experiments.runner import CellSpec

        plain = CellSpec(
            design=design, scheme=scheme, benchmark="art", measure=150,
            seed=1, fault_seed=7, early_miss_detection=early_miss,
        )
        null = replace(plain, link_fault_rate=1e-12)
        assert null.has_faults and not plain.has_faults
        expected, result = _run_single(plain), _run_single(null)
        assert result.contents_digest == expected.contents_digest
        assert result.cycles == expected.cycles
        assert result.ipc == expected.ipc
        expected_metrics = json.loads(json.dumps(expected.metrics))
        live_metrics = json.loads(json.dumps(result.metrics))
        shared = {k: v for k, v in live_metrics.items() if k in expected_metrics}
        assert shared == expected_metrics
        # The resilience instrumentation is present but reports inertness.
        assert live_metrics["faults.injected"]["value"] == 0
        assert live_metrics["faults.retries"]["value"] == 0


class TestSeededCampaign:
    def test_link_failure_campaign_fully_available(self):
        config = CampaignConfig(
            designs=("A",), schemes=(SCHEME,), benchmark="art",
            rates=(1e-2,), measure=150, seed=1, fault_seed=7,
        )
        result = run_campaign(config)
        assert len(result.points) == 2  # swept rate plus forced baseline

        baseline = result.point("A", SCHEME, 0.0)
        assert baseline.availability == 1.0
        assert baseline.latency_degradation == 1.0
        assert baseline.faults_injected == 0

        faulted = result.point("A", SCHEME, 1e-2)
        assert faulted.faults_injected > 0
        # Every access completes through reroute/retry alone.
        assert faulted.availability == 1.0
        assert faulted.completed == faulted.accesses
        assert faulted.exhausted_retries == 0
        assert faulted.rerouted_packets > 0 or faulted.retries > 0
        assert faulted.latency_degradation > 0.0
        assert faulted.goodput > 0.0
