"""Tests for the differential oracle (engine path vs checked replay)."""

import dataclasses

import pytest

from repro.core.designs import DESIGN_NAMES
from repro.errors import SimulationError
from repro.experiments import runner
from repro.experiments.common import ExperimentConfig
from repro.noc.arraycore import ArrayNetwork
from repro.validation import run_oracle
from repro.validation.differential import (
    DRAIN_CYCLES,
    DRAIN_LATENCY,
    DRAIN_PER_FLIT,
    FlitWorkload,
    PacketSpec,
    _oracle_sample,
    _sample_indices,
)


@pytest.fixture(autouse=True)
def _fresh_engine():
    runner.reset_memo()
    yield
    runner.reset_memo()


class TestSampleIndices:
    def test_empty_and_degenerate(self):
        assert _sample_indices(0, 4) == []
        assert _sample_indices(10, 0) == []
        assert _sample_indices(-1, 3) == []

    def test_sample_covers_everything_when_small(self):
        assert _sample_indices(3, 8) == [0, 1, 2]
        assert _sample_indices(1, 1) == [0]

    def test_even_spread_hits_both_ends(self):
        indices = _sample_indices(100, 5)
        assert indices[0] == 0
        assert indices[-1] == 99
        assert indices == sorted(set(indices))
        assert len(indices) == 5

    def test_deterministic(self):
        assert _sample_indices(240, 4) == _sample_indices(240, 4)


class TestOracleSample:
    @staticmethod
    def _rows(hits):
        return [(0, hit, 0 if hit else None) for hit in hits]

    def test_cell_without_misses_spreads_over_everything(self):
        rows = self._rows([True] * 240)
        assert _oracle_sample(rows, 4) == _sample_indices(240, 4)

    def test_half_the_sample_is_misses(self):
        rows = self._rows([i % 10 != 3 for i in range(100)])  # 10 misses
        chosen = _oracle_sample(rows, 5)
        assert chosen == sorted(chosen)
        assert len(chosen) == 5
        misses = [i for i in chosen if not rows[i][1]]
        assert misses == [3, 43, 93]  # ceil(5 / 2), spread over the misses

    def test_few_misses_are_all_taken(self):
        rows = self._rows([i != 7 for i in range(50)])
        chosen = _oracle_sample(rows, 4)
        assert 7 in chosen and len(chosen) == 4


class TestDrainGuard:
    REQUEST = PacketSpec("read_request", (0, 0), ((1, 1),), 40)
    FILL = PacketSpec("memory_fill", (1, 1), ((0, 0),), 7)
    FANOUT = PacketSpec("read_request", (0, 0), ((0, 1), (1, 1)), 3)

    def test_guard_follows_the_workload(self):
        workload = FlitWorkload(
            "mesh", 2, 2, packets=(self.REQUEST, self.FILL, self.FANOUT)
        )
        # Last injection at 40; flit deliveries 1 + 5 + 2.
        assert workload.drain_cycles == 40 + DRAIN_LATENCY + DRAIN_PER_FLIT * 8
        crowd = dataclasses.replace(workload, packets=(self.REQUEST,) * 50_000)
        assert crowd.drain_cycles == DRAIN_CYCLES

    def test_hung_run_fails_at_the_guard(self, monkeypatch):
        # A switch phase that never moves a flit: the run must give up
        # at the workload's guard, not at the DRAIN_CYCLES cap.
        monkeypatch.setattr(ArrayNetwork, "_switch_phase", lambda *args: None)
        workload = FlitWorkload("mesh", 2, 2, packets=(self.REQUEST,))
        with pytest.raises(SimulationError) as excinfo:
            workload.run("array")
        assert f"within {workload.drain_cycles} cycles" in str(excinfo.value)


class TestOracleAgreement:
    def test_multicast_cell_agrees(self):
        report = run_oracle(
            design="A", scheme="multicast+fast_lru", benchmark="art",
            measure=150, seed=1, sample=3,
        )
        assert report.ok, report.render()
        assert report.engine_hits == report.replay_hits
        assert report.engine_digest == report.replay_digest
        assert report.accesses == 150
        assert report.conservation_checks > 0
        assert report.timing_checks == 150
        assert report.legs  # flit-level re-enactment actually ran
        for leg in report.legs:
            assert leg.delivered_hops == leg.predicted_hops
        # Every re-enacted delivery was also compared across the cores.
        assert report.array_legs == len(report.legs)

    def test_unicast_cell_agrees(self):
        report = run_oracle(
            design="F", scheme="unicast+lru", benchmark="twolf",
            measure=120, seed=2, sample=2,
        )
        assert report.ok, report.render()
        assert "OK" in report.summary_line()

    @pytest.mark.parametrize("scheme", ["multicast+fast_lru", "unicast+lru"])
    @pytest.mark.parametrize("design", DESIGN_NAMES)
    def test_every_design_agrees(self, design, scheme):
        report = run_oracle(design=design, scheme=scheme, measure=90, sample=2)
        assert report.ok, report.render()
        assert report.legs
        assert report.array_legs == len(report.legs)

    def test_fast_lru_cell_reports_its_eviction_chain(self):
        # Transaction 0 of this cell hits below the MRU bank, so the
        # protocol plays Fast-LRU's eviction chain down to the hit bank.
        report = run_oracle(measure=90, sample=2)
        assert report.ok, report.render()
        chain = [leg for leg in report.legs if leg.leg == "evict"]
        assert chain
        for leg in chain:
            column, position = leg.source  # design A: bank p sits at (column, p)
            assert leg.destination == (column, position + 1)
        for leg in report.legs:
            assert leg.delivered_hops == leg.predicted_hops

    def test_miss_sample_reports_memory_legs(self):
        # mcf misses at this scale; the sample must reach the memory path.
        report = run_oracle("A", "unicast+lru", "mcf", measure=90, sample=2)
        assert report.ok, report.render()
        legs = {leg.leg for leg in report.legs}
        assert {"memory_request", "memory_fill", "fill_forward"} <= legs

    def test_report_renders_every_leg(self):
        report = run_oracle(measure=90, sample=2)
        text = report.render()
        assert report.summary_line() in text
        assert text.count("[ok]") == len(report.legs)


class TestOracleCatchesDivergence:
    def _poison_memo(self, **changes):
        """Replace the lone memoised engine result with a tampered copy."""
        [(spec, result)] = runner._memo.items()
        runner._memo[spec] = dataclasses.replace(result, **changes)

    def test_detects_corrupted_hit_counts(self):
        spec = runner.spec_for(
            "A", "multicast+fast_lru", "art",
            ExperimentConfig(measure=90, seed=1),
        )
        runner.run_cells([spec])
        [(spec, result)] = runner._memo.items()
        bad_content = dataclasses.replace(
            result.content, hits=result.content.hits + 3
        )
        self._poison_memo(content=bad_content)
        report = run_oracle(measure=90, sample=0)
        assert not report.ok
        assert any("hit counts diverge" in d for d in report.divergences)
        assert "DIVERGENCES" in report.summary_line()

    def test_detects_corrupted_contents_digest(self):
        spec = runner.spec_for(
            "A", "multicast+fast_lru", "art",
            ExperimentConfig(measure=90, seed=1),
        )
        runner.run_cells([spec])
        self._poison_memo(contents_digest="deadbeef")
        report = run_oracle(measure=90, sample=0)
        assert not report.ok
        assert any("contents diverge" in d for d in report.divergences)
        assert "DIVERGENCE" in report.render()

    def test_detects_array_core_metric_drift(self, monkeypatch):
        # The protocol replay compares the cores' published snapshots too, so
        # a counter only the array core miscounts is a divergence.
        from repro.noc.arraycore import ArrayNetwork

        original = ArrayNetwork.publish_metrics

        def drifted(self, registry):
            original(self, registry)
            registry.counter("noc.network.cycles").inc(1)

        monkeypatch.setattr(ArrayNetwork, "publish_metrics", drifted)
        report = run_oracle(measure=90, sample=2)
        assert not report.ok
        assert any(
            "array core diverged from the object core on metrics" in d
            for d in report.divergences
        ), report.render()
