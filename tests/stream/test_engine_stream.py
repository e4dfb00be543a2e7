"""StreamSpec through the experiment engine: memo, cache, workers.

The engine's determinism triangle must hold for streaming cells exactly
as it does for CellSpec sweeps: serial, ``--jobs 2``, and warm-cache
replay of the same overload sweep merge to bit-identical telemetry.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.experiments.runner import reset_memo, run_cells
from repro.experiments.stream_sweep import (
    StreamSweepConfig,
    render,
    run_sweep,
    sweep_specs,
)
from repro.stream.engine import StreamSpec, stream_spec_for
from repro.telemetry import global_registry, reset_global_metrics

SWEEP = StreamSweepConfig(
    design="C",
    mix="duo-bursty",
    loads=(1.0, 3.0),
    cycles=900,
)


@pytest.fixture(autouse=True)
def _fresh_engine():
    reset_memo()
    reset_global_metrics()
    yield
    reset_memo()
    reset_global_metrics()


def _spec(**overrides) -> StreamSpec:
    values = dict(seed=0, cycles=900)
    values.update(overrides)
    return stream_spec_for("C", "drop-tail", "duo-bursty", **values)


class TestStreamSpec:
    def test_key_is_namespaced(self):
        assert _spec().key()[0] == "stream"

    def test_spec_for_validates(self):
        with pytest.raises(ConfigurationError):
            stream_spec_for("C", "rate-limit", "duo-bursty")
        with pytest.raises(ConfigurationError):
            stream_spec_for("C", "drop-tail", "octet-mixed")

    def test_run_cells_runs_the_spec_itself(self):
        spec = _spec()
        assert run_cells([spec], jobs=1, cache=None)[0] == spec.execute()

    def test_results_deterministic_and_core_independent(self):
        reference = _spec().execute()
        assert _spec().execute() == reference
        array = _spec(core="array").execute()
        assert array.summary == reference.summary
        assert json.dumps(array.metrics, sort_keys=True) == json.dumps(
            reference.metrics, sort_keys=True
        )


class TestSweep:
    def test_specs_cover_the_grid_policy_major(self):
        specs = sweep_specs(SWEEP)
        assert [(s.scheme, s.load) for s in specs] == [
            ("drop-tail", 1.0),
            ("drop-tail", 3.0),
            ("token-bucket", 1.0),
            ("token-bucket", 3.0),
        ]

    def test_render_tabulates_every_cell(self):
        results = run_sweep(SWEEP, jobs=1, cache=None)
        table = render(SWEEP, results)
        assert "Overload sweep: design C" in table
        assert table.count("drop-tail") == 2
        assert table.count("token-bucket") == 2

    def _merged(self, jobs: int, cache) -> dict:
        reset_global_metrics()
        results = run_cells(sweep_specs(SWEEP), jobs=jobs, cache=cache)
        snapshot = global_registry().snapshot()
        reset_global_metrics()
        assert all(r.offered == r.admitted + r.rejected for r in results)
        return snapshot

    def test_serial_parallel_and_warm_replay_merge_identically(
        self, tmp_path
    ):
        cache = ResultCache(directory=tmp_path)
        serial = self._merged(jobs=1, cache=cache)
        reset_memo()
        # No cache here, so every cell really runs in a worker.
        parallel = self._merged(jobs=2, cache=None)
        reset_memo()
        replayed = self._merged(jobs=1, cache=cache)
        assert cache.stats.hits == len(set(sweep_specs(SWEEP)))
        assert serial
        assert serial == parallel == replayed

    def test_overload_degrades_availability(self):
        results = run_sweep(SWEEP, jobs=1, cache=None)
        by_cell = {
            (s.scheme, s.load): r
            for s, r in zip(sweep_specs(SWEEP), results)
        }
        for policy in ("drop-tail", "token-bucket"):
            nominal = by_cell[(policy, 1.0)]
            overloaded = by_cell[(policy, 3.0)]
            assert overloaded.offered > nominal.offered
            assert overloaded.availability <= nominal.availability
