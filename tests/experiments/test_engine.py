"""The parallel experiment engine and its persistent result cache.

The engine's contract is determinism: parallel, serial, and cached
evaluations of the same :class:`CellSpec` must be bit-identical, and the
persistent cache must invalidate on code changes and survive corruption.
"""

import dataclasses
import pickle

import pytest

from repro.core.flows import STATIC_NUCA, make_scheme
from repro.core.system import RunResult
from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache, code_fingerprint
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import (
    CellSpec,
    CMPSpec,
    EnergySpec,
    last_batch,
    reset_memo,
    run_cells,
    spec_for,
)

ENGINE_CONFIG = ExperimentConfig(measure=300)


def _triangle(specs: list, cache: ResultCache) -> tuple[dict, dict, dict]:
    """Merged telemetry of *specs* run serially, at ``jobs=2`` and replayed.

    The serial leg fills *cache*; the parallel leg bypasses it, so every
    cell really runs in a worker; the replay leg is served from *cache*.
    """
    from repro.telemetry import global_registry, reset_global_metrics

    def merged(jobs: int, store: ResultCache | None) -> dict:
        reset_memo()
        reset_global_metrics()
        run_cells(specs, jobs=jobs, cache=store)
        snapshot = global_registry().snapshot()
        reset_global_metrics()
        return snapshot

    serial = merged(1, cache)
    parallel = merged(2, None)
    assert last_batch().computed == len(set(specs))
    hits = cache.stats.hits
    replayed = merged(1, cache)
    assert cache.stats.hits - hits == len(set(specs))
    assert last_batch().computed == 0
    return serial, parallel, replayed


def _result_fields(result: RunResult) -> tuple:
    """Every numeric observable a figure could read off a result."""
    return (
        result.design,
        result.scheme,
        result.accesses,
        result.cycles,
        result.ipc,
        result.average_latency,
        result.average_hit_latency,
        result.average_miss_latency,
        result.hit_rate,
        result.latency.network_sum,
        result.latency.bank_sum,
        result.latency.memory_sum,
    )


def _sweep_specs() -> list[CellSpec]:
    """The ISSUE's reference sweep: 2 designs x 3 benchmarks."""
    return [
        spec_for(design, "multicast+fast_lru", benchmark, ENGINE_CONFIG)
        for design in ("A", "F")
        for benchmark in ("art", "twolf", "mcf")
    ]


@pytest.fixture(autouse=True)
def _fresh_engine():
    reset_memo()
    yield
    reset_memo()


class TestRunCells:
    def test_parallel_bit_identical_to_serial(self):
        specs = _sweep_specs()
        serial = run_cells(specs, jobs=1, cache=None)
        reset_memo()
        parallel = run_cells(specs, jobs=2, cache=None)
        assert len(serial) == len(parallel) == 6
        for s, p in zip(serial, parallel):
            assert _result_fields(s) == _result_fields(p)

    def test_results_in_input_order_with_duplicates(self):
        spec = _sweep_specs()[0]
        other = _sweep_specs()[1]
        results = run_cells([spec, other, spec], jobs=1, cache=None)
        assert results[0] is results[2]
        assert results[0].design != results[1].design or (
            _result_fields(results[0]) != _result_fields(results[1])
        )

    def test_memo_shared_across_batches(self):
        spec = _sweep_specs()[0]
        first = run_cells([spec], jobs=1, cache=None)[0]
        again = run_cells([spec], jobs=1, cache=None)[0]
        assert again is first

    def test_scheme_aliases_share_a_cell(self):
        canonical = spec_for("A", "multicast+fast_lru", "art", ENGINE_CONFIG)
        for alias in ("multicast+fastlru", "MC+Fast-LRU", "mc+fast lru"):
            assert spec_for("A", alias, "art", ENGINE_CONFIG) == canonical


class TestTelemetryIntegration:
    def _merged_metrics(self, jobs: int) -> dict:
        from repro.telemetry import global_registry, reset_global_metrics

        reset_global_metrics()
        run_cells(_sweep_specs(), jobs=jobs, cache=None)
        snapshot = global_registry().snapshot()
        reset_global_metrics()
        return snapshot

    def test_serial_and_parallel_merge_identically(self):
        serial = self._merged_metrics(jobs=1)
        reset_memo()
        parallel = self._merged_metrics(jobs=2)
        assert serial
        assert serial == parallel

    def test_cache_replay_merges_identically(self, tmp_path):
        from repro.telemetry import global_registry, reset_global_metrics

        cache = ResultCache(directory=tmp_path)
        reset_global_metrics()
        run_cells(_sweep_specs(), jobs=1, cache=cache)
        fresh = global_registry().snapshot()
        reset_memo()
        reset_global_metrics()
        run_cells(_sweep_specs(), jobs=1, cache=cache)
        replayed = global_registry().snapshot()
        reset_global_metrics()
        assert cache.stats.hits == len(_sweep_specs())
        assert replayed == fresh

    def test_serial_parallel_and_warm_replay_merge_identically(self, tmp_path):
        """The full determinism triangle: a serial run, a ``--jobs 2`` run,
        and a warm-cache replay of the same sweep must merge to the same
        telemetry, not just the same results. One cell runs on a degraded
        geometry (link and transient faults)."""
        faulted = spec_for(
            "A", "multicast+fast_lru", "art", ENGINE_CONFIG,
            link_fault_rate=0.1, transient_fault_rate=0.01, fault_seed=7,
        )
        cache = ResultCache(directory=tmp_path)
        serial, parallel, replayed = _triangle(
            _sweep_specs() + [faulted], cache
        )
        assert serial["faults.retries"]["value"] > 0
        assert serial["faults.rerouted_packets"]["value"] > 0
        assert serial == parallel == replayed

    def test_windowed_series_survive_the_triangle(self, tmp_path):
        """Series honor the same merge contract as every other metric: a
        windowed sweep's ``cache.series.*``/``noc.series.*`` payloads are
        byte-identical across serial, ``--jobs 2``, and warm-cache
        replay -- window maps merge per-index, order-independently. The
        S-NUCA, energy and CMP cell kinds ride along."""
        import json

        config = dataclasses.replace(ENGINE_CONFIG, window=50)
        specs = [
            spec_for(design, "multicast+fast_lru", benchmark, config)
            for design in ("A", "F")
            for benchmark in ("art", "twolf")
        ] + [
            spec_for("A", STATIC_NUCA, "art", config),
            EnergySpec(spec_for("F", "unicast+lru", "art", config)),
            CMPSpec("A", 2, config.measure, config.seed, window=50),
        ]
        cache = ResultCache(directory=tmp_path)
        serial, parallel, replayed = _triangle(specs, cache)
        series = {
            name: snap for name, snap in serial.items()
            if snap["type"] == "series"
        }
        assert all(snap["window"] == 50 for snap in series.values())
        # Six single-core cells and a two-core CMP cell.
        windows = series["cache.series.accesses"]["windows"]
        assert sum(count for _, count in windows) == 8 * config.measure
        encode = lambda snap: json.dumps(snap, sort_keys=True)  # noqa: E731
        assert encode(serial) == encode(parallel) == encode(replayed)

    def test_window_is_part_of_the_cache_key(self):
        """A windowed cell must never replay from an unwindowed entry
        (the snapshots differ), so ``window`` lives on the CellSpec."""
        windowed = spec_for(
            "A", "multicast+fast_lru", "art",
            dataclasses.replace(ENGINE_CONFIG, window=50),
        )
        plain = spec_for("A", "multicast+fast_lru", "art", ENGINE_CONFIG)
        assert windowed != plain
        assert windowed.key() != plain.key()
        assert dict(windowed.key()[1:])["window"] == 50

    def test_results_carry_metrics_and_provenance(self):
        result = run_cells([_sweep_specs()[0]], jobs=1, cache=None)[0]
        assert result.metrics
        assert "noc.router.vc_alloc_failures" in result.metrics
        assert "cache.bankset.eviction_chain_depth" in result.metrics
        assert result.wall_s is not None and result.wall_s > 0
        assert result.provenance["seed"] == ENGINE_CONFIG.seed
        assert result.provenance["source_fingerprint"] == code_fingerprint()

    def test_provenance_is_pure_function_of_spec(self):
        spec = _sweep_specs()[0]
        first = spec.execute().provenance
        second = spec.execute().provenance
        assert first == second


class TestBatchReport:
    def test_sources_classified_and_summary(self, tmp_path):
        from repro.experiments.runner import last_batch

        cache = ResultCache(directory=tmp_path)
        specs = _sweep_specs()[:2]
        run_cells(specs, jobs=1, cache=cache)
        batch = last_batch()
        assert (batch.total, batch.unique, batch.computed) == (2, 2, 2)
        assert batch.summary() == "2 cells: 0 cached, 2 computed"

        run_cells(specs + [specs[0]], jobs=1, cache=cache)
        batch = last_batch()
        assert batch.total == 3 and batch.unique == 2
        assert batch.memo_hits == 2 and batch.computed == 0
        assert batch.summary() == "3 cells: 2 cached, 0 computed"

        reset_memo()
        run_cells(specs, jobs=1, cache=cache)
        batch = last_batch()
        assert batch.cache_hits == 2 and batch.computed == 0
        sources = {cell.source for cell in batch.cells}
        assert sources == {"cache"}
        assert batch.wall_s >= 0

    def test_journal_payload_is_json_able(self):
        import json

        from repro.experiments.runner import journal_payload

        run_cells(_sweep_specs()[:1], jobs=1, cache=None)
        payload = journal_payload()
        assert len(payload) == 1
        decoded = json.loads(json.dumps(payload))
        assert decoded[0]["cells"][0]["source"] == "computed"


class TestResultCache:
    def test_hit_returns_identical_result(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        spec = _sweep_specs()[0]
        fresh = run_cells([spec], jobs=1, cache=cache)[0]
        assert cache.stats.stores == 1
        reset_memo()
        cached = run_cells([spec], jobs=1, cache=cache)[0]
        assert cache.stats.hits == 1
        assert _result_fields(cached) == _result_fields(fresh)

    def test_fingerprint_change_invalidates(self, tmp_path):
        spec = _sweep_specs()[0]
        old = ResultCache(directory=tmp_path, fingerprint="aaaa")
        run_cells([spec], jobs=1, cache=old)
        reset_memo()
        new = ResultCache(directory=tmp_path, fingerprint="bbbb")
        run_cells([spec], jobs=1, cache=new)
        assert new.stats.misses == 1
        assert new.stats.hits == 0
        # Both fingerprints' entries coexist; neither clobbered the other.
        assert len(new) == 2

    def test_corrupted_entry_discarded_not_fatal(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        spec = _sweep_specs()[0]
        fresh = run_cells([spec], jobs=1, cache=cache)[0]
        [entry] = tmp_path.glob("*.pkl")
        entry.write_bytes(b"not a pickle at all")
        reset_memo()
        rerun = run_cells([spec], jobs=1, cache=cache)[0]
        assert cache.stats.discarded == 1
        assert cache.stats.hits == 0
        assert _result_fields(rerun) == _result_fields(fresh)

    def test_wrong_payload_key_discarded(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        key = ("cell", ("design", "A"))
        cache.put(key, "value")
        [entry] = tmp_path.glob("*.pkl")
        entry.write_bytes(
            pickle.dumps({"key": ("something", "else"), "value": "forged"})
        )
        assert cache.get(key) is None
        assert cache.stats.discarded == 1
        assert len(cache) == 0

    def test_unwritable_directory_is_not_fatal(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = ResultCache(directory=blocker / "sub", fingerprint="f")
        cache.put(("k",), "value")  # must not raise
        assert cache.stats.write_failures == 1
        assert cache.stats.stores == 0
        assert cache.get(("k",)) is None

    def test_round_trip_and_clear(self, tmp_path):
        cache = ResultCache(directory=tmp_path, fingerprint="fixed")
        cache.put(("k",), {"x": 1})
        assert cache.get(("k",)) == {"x": 1}
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get(("k",)) is None

    def test_fingerprint_is_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 20


class TestCellSpec:
    def test_spec_is_picklable_and_hashable(self):
        spec = _sweep_specs()[0]
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert spec in {spec}

    def test_key_covers_every_field(self):
        spec = _sweep_specs()[0]
        names = {name for name, _ in spec.key()[1:]}
        assert names == {f.name for f in dataclasses.fields(CellSpec)}

    @pytest.mark.parametrize(
        "override",
        [
            {"early_miss_detection": True},
            {"link_fault_rate": 0.1},
        ],
        ids=["early-miss", "faults"],
    )
    def test_static_nuca_cell_refuses_what_it_cannot_honour(self, override):
        spec = spec_for("A", STATIC_NUCA, "art", ENGINE_CONFIG, **override)
        with pytest.raises(ConfigurationError, match=next(iter(override))):
            spec.execute()

    @pytest.mark.parametrize(
        "design, override",
        [
            ("A", {"single_cycle_router": False}),
            ("E", {"wire_delay_scale": 4}),
        ],
        ids=["router", "wire-scale"],
    )
    def test_static_nuca_cell_honours_the_geometry_knobs(self, design, override):
        # The S-NUCA system runs on the cell's geometry, so a slower
        # router pipeline or longer spike wires show in its latency.
        base = spec_for(design, STATIC_NUCA, "art", ENGINE_CONFIG)
        slow = dataclasses.replace(base, **override)
        assert slow.execute().average_latency > base.execute().average_latency

    def test_override_fields_reach_the_model(self):
        # mcf at this scale actually misses, so the off-chip latency
        # override must show up in the miss path.
        config = ExperimentConfig(measure=600)
        base = spec_for("A", "multicast+fast_lru", "mcf", config)
        slow = dataclasses.replace(base, memory_base_latency=500)
        base_result = base.execute()
        slow_result = slow.execute()
        assert base_result.latency.miss_count > 0
        assert (
            slow_result.average_miss_latency > base_result.average_miss_latency
        )

    def test_overrides_are_built_into_the_cell(self, monkeypatch):
        # A cell's memory and wire overrides live in its own memory model
        # and topology: while it runs, the Table-1 globals read as ever.
        from repro import config
        from repro.cache.memory import MemoryModel

        seen = set()
        read = MemoryModel.read

        def observed_read(memory, time):
            seen.add((
                config.MEMORY_BASE_LATENCY,
                config.BankTiming.for_capacity(65536).wire_delay,
                memory.access_latency,
            ))
            return read(memory, time)

        monkeypatch.setattr(MemoryModel, "read", observed_read)
        spec = spec_for(
            "A", "multicast+fast_lru", "mcf", ExperimentConfig(measure=600),
            memory_base_latency=300, wire_delay_scale=3,
        )
        result = spec.execute()
        assert result.latency.miss_count > 0
        assert seen == {(130, 1, 300 + 32)}

    def test_wire_scale_multiplies_every_channel(self):
        # Design D pins its first-row horizontals at 3 cycles; a wire
        # scale multiplies them like every Table-1 delay.
        from repro.core.designs import design_spec
        from repro.experiments.runner import _build_geometry

        spec = spec_for("D", "multicast+fast_lru", "art", ENGINE_CONFIG)
        pristine = {
            (c.src, c.dst): c.wire_delay
            for c in design_spec("D").topology_factory().channels()
        }
        scaled = {
            (c.src, c.dst): c.wire_delay
            for c in _build_geometry(
                dataclasses.replace(spec, wire_delay_scale=2)
            ).topology.channels()
        }
        assert scaled == {pair: 2 * delay for pair, delay in pristine.items()}
        assert pristine[(0, 0), (1, 0)] == 3
        assert scaled[(0, 0), (1, 0)] == 6


class TestSchemeAliases:
    def test_fastlru_spellings_accepted(self):
        for name in ("multicast+fastlru", "multicast+fast-lru",
                     "multicast+fast_lru"):
            assert make_scheme(name).name == "multicast+fast_lru"

    def test_unknown_scheme_error_lists_spellings(self):
        from repro.errors import ConfigurationError, ProtocolError

        with pytest.raises(ConfigurationError, match="fast_lru"):
            make_scheme("multicast+bogus")
        with pytest.raises(ProtocolError, match="multicast"):
            make_scheme("teleport+lru")
        with pytest.raises(ProtocolError, match="fast_lru"):
            make_scheme("justonename")

    def test_policy_by_name_aliases(self):
        from repro.cache.replacement import policy_by_name

        assert type(policy_by_name("fastlru")) is type(policy_by_name("fast_lru"))
        assert type(policy_by_name("Fast-LRU")) is type(policy_by_name("fast_lru"))
        with pytest.raises(Exception, match="fastlru"):
            policy_by_name("bogus")
