"""Smoke tests for the extension experiment drivers (tiny scale)."""

from repro.experiments import ablations, cmp_scaling, noc_load, sensitivity
from repro.experiments.common import ExperimentConfig

TINY = ExperimentConfig(measure=250, benchmarks=("art", "twolf", "mcf"))


class TestAblations:
    def test_router_ablation(self):
        points = ablations.router_ablation(TINY)
        assert points[1].mean_latency > points[0].mean_latency
        assert "single-cycle" in ablations.render(points, "t")

    def test_mechanism_ablation_orders(self):
        points = ablations.mechanism_ablation(TINY)
        assert len(points) == 4
        assert points[3].mean_latency < points[0].mean_latency

    def test_spike_queue_depths(self):
        points = ablations.spike_queue_ablation(TINY, depths=(1, 2))
        assert len(points) == 2
        # One entry serializes each spike, so the queue depth binds.
        assert points[0].mean_latency > points[1].mean_latency

    def test_render_prints_the_change_from_the_first_row(self):
        points = [
            ablations.AblationPoint("base", 0.2, 50.0),
            ablations.AblationPoint("faster", 0.25, 40.0),
        ]
        lines = ablations.render(points, "t").splitlines()
        assert "IPC 0.200 (+0.0% vs first)" in lines[2]
        assert "IPC 0.250 (+25.0% vs first)" in lines[3]

    def test_sampling_ablation(self):
        ratios = ablations.sampling_ablation(TINY, index_spaces=(8, 16))
        assert set(ratios) == {8, 16}
        assert all(v > 0.9 for v in ratios.values())

    def test_spiral_spikes_cost_performance(self):
        straight, spiral = ablations.spiral_spike_ablation(TINY)
        assert spiral.geomean_ipc < straight.geomean_ipc
        assert spiral.mean_latency > straight.mean_latency

    def test_issue_model_ablation(self):
        ratios = ablations.issue_model_ablation(TINY)
        assert set(ratios) == {0, 10, 20}
        assert all(v > 0.9 for v in ratios.values())


class TestSensitivity:
    @staticmethod
    def _table1_during(monkeypatch) -> set:
        """Record the Table-1 globals at every memory read of a sweep."""
        from repro import config
        from repro.cache.memory import MemoryModel
        from repro.experiments import runner

        # Every cell must run here, not replay from an earlier test.
        runner.reset_memo()
        monkeypatch.setattr(runner.settings(), "cache", None)
        seen = set()
        read = MemoryModel.read

        def observed_read(memory, time):
            seen.add((
                config.MEMORY_BASE_LATENCY,
                config.BankTiming.for_capacity(65536).wire_delay,
            ))
            return read(memory, time)

        monkeypatch.setattr(MemoryModel, "read", observed_read)
        return seen

    def test_memory_sweep_restores_config(self, monkeypatch):
        # Nothing to restore: each cell builds its base latency into its
        # own memory model, so repro.config reads Table 1 throughout.
        seen = self._table1_during(monkeypatch)
        points = sensitivity.memory_latency_sweep(
            TINY, base_latencies=(60, 300)
        )
        assert seen == {(130, 1)}
        assert len(points) == 2
        assert all(p.ipc_a > 0 for p in points)
        # Faster memory means higher absolute IPC everywhere.
        assert points[0].ipc_a > points[1].ipc_a

    def test_wire_sweep_restores_config(self, monkeypatch):
        # Nothing to restore: each cell scales its own topology's channels.
        seen = self._table1_during(monkeypatch)
        points = sensitivity.wire_delay_sweep(TINY, scales=(1, 3))
        assert seen == {(130, 1)}
        # Worse wires hurt absolute IPC.
        assert points[1].ipc_a < points[0].ipc_a

    def test_render(self):
        points = sensitivity.memory_latency_sweep(TINY, base_latencies=(130,))
        out = sensitivity.render(points, "t")
        assert "F / A" in out


class TestCMPScaling:
    def test_driver(self):
        points = cmp_scaling.run(designs=("A",), core_counts=(1, 2),
                                 measure=300)
        assert len(points) == 2
        assert points[1].aggregate_ipc > points[0].aggregate_ipc
        assert "agg IPC" in cmp_scaling.render(points)


class TestNoCLoad:
    def test_single_point(self):
        point = noc_load.run_load_point(0.05, mesh_size=4, cycles=150)
        assert point.delivered == point.offered
        assert point.average_latency > 0

    def test_render(self):
        points = noc_load.run(rates=(0.02, 0.3), mesh_size=4, cycles=150)
        out = noc_load.render(points)
        assert "latency trend" in out
