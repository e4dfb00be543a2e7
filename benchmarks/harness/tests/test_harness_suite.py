"""Tiny-parameter smoke runs of every workload, traced and untraced."""

import dataclasses
import json
import types

import pytest

import hostspeed
import layers
import run
import suite

SPEC = json.loads((suite.OUT_DIR.parents[2] / "BENCHMARK.json").read_text())

TINY = {
    "grid-multicast": suite.Grid(
        cells=(("A", "multicast+fast_lru", "art"),
               ("F", "multicast+fast_lru", "mesa")),
        measure=200,
    ),
    "grid-unicast": suite.Grid(cells=(("A", "unicast+lru", "art"),), measure=200),
    "serve-sweep": suite.Serve(
        designs=("C",), policies=("drop-tail",), loads=(2.0,), cycles=600
    ),
    "noc-load": suite.NocLoad(rates=(0.15,), cycles=40),
}


@pytest.fixture(autouse=True)
def out_dir(monkeypatch, tmp_path):
    monkeypatch.setattr(suite, "OUT_DIR", tmp_path)
    return tmp_path


def _declared(kind):
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_declared_workloads_and_metrics_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(suite.WORKLOADS)
    assert _declared("end_to_end") == suite.END_TO_END
    assert _declared("per_layer") == suite.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
def test_workload_smoke(name, out_dir):
    workload = TINY[name]
    bound = [vars(layers._owner(t))[t.attr] for t in layers.LAYERS]

    info, result = suite.measure(name, 1, 1, False, workload=workload)
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] == len(workload.units(1))
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared(
        "end_to_end"
    )
    assert all(value > 0 for value in metrics.values()), metrics

    traced_info, traced = suite.measure(name, 1, 1, True, workload=workload)
    assert traced["correct"], traced_info["failures"]
    assert traced_info["results_sha"] == info["results_sha"]
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == _declared(
        "per_layer"
    )
    assert [vars(layers._owner(t))[t.attr] for t in layers.LAYERS] == bound
    assert (out_dir / f"{name}-seed1.trace.json").is_file()

    layer = {k: m["value"] for k, m in traced["metrics"].items()}
    assert layer["trace_overhead_ratio"] > 0
    grid = name.startswith("grid-")
    assert (layer["core.flows.txns"] > 0) == grid
    assert (layer["core.geometry.multicasts"] > 0) == (name == "grid-multicast")
    assert (layer["stream.requests"] > 0) == (name == "serve-sweep")
    assert (layer["noc.object.steps"] > 0) == (name == "noc-load")
    assert (layer["noc.array.steps"] > 0) == (name in ("serve-sweep", "noc-load"))


def test_seed_reaches_the_simulation():
    workload = TINY["noc-load"]
    first, _ = suite.measure("noc-load", 1, 1, False, workload=workload)
    again, _ = suite.measure("noc-load", 1, 1, False, workload=workload)
    other, _ = suite.measure("noc-load", 2, 1, False, workload=workload)
    assert first["results_sha"] == again["results_sha"] != other["results_sha"]


class Flaky:
    """A workload whose second unit raises and whose third fails its check."""

    engine = False

    def units(self, seed):
        return [0, 1, 2]

    def execute(self, unit, cache):
        if unit == 1:
            raise RuntimeError("unit 1 raises")
        return unit

    label = staticmethod(str)

    def check(self, unit, result):
        return "bad result" if unit == 2 else None

    def observables(self, result):
        return {"value": result}

    def work(self, result):
        return 1

    def cross_check(self, units, results):
        return {}

    def result_layers(self, units, results, seconds):
        return {}


def test_failures_are_counted_and_make_the_run_incorrect():
    info, result = suite.measure("flaky", 1, 1, False, workload=Flaky())
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert info["failures"] == ["1: raised", "2: bad result"]


class Drifting(Flaky):
    """A workload whose results change from one pass to the next."""

    def __init__(self):
        self.calls = 0

    def execute(self, unit, cache):
        self.calls += 1
        return self.calls

    def check(self, unit, result):
        return None


def test_a_traced_pass_that_differs_from_the_reference_fails():
    info, result = suite.measure("drifting", 1, 1, True, workload=Drifting())
    assert result["correct"] is False
    assert info["failures"] == [
        f"{unit}: traced result differs from pass 1" for unit in range(3)
    ]


@pytest.mark.parametrize(
    "workload, fields, expected",
    [
        (suite.Grid(cells=()), {"accesses": 9},
         "accesses 9 != measure 10"),
        (suite.Serve(),
         {"offered": 5, "admitted": 3, "rejected": 1, "completed": 3},
         "offered 5 != admitted 3 + rejected 1"),
        (suite.Serve(),
         {"offered": 5, "admitted": 4, "rejected": 1, "completed": 3},
         "admitted 4 != completed 3"),
        (suite.NocLoad(), {"offered": 5, "delivered": 4},
         "delivered 4 != offered 5"),
    ],
)
def test_unit_checks_reject_bad_results(workload, fields, expected):
    spec = types.SimpleNamespace(measure=10)
    assert workload.check(spec, types.SimpleNamespace(**fields)) == expected


def test_a_unit_counts_at_its_median_corrected_repetition():
    workload = Flaky()
    passes = [
        suite.Pass(seconds=[2.0, 3.0, 1.0], slowdowns=[1.0, 1.0, 1.0],
                   results=[0, 1, 2]),
        # The host ran at half speed: 2.0 s of it are 1.0 s of the
        # reference host.
        suite.Pass(seconds=[2.0, 8.0, 3.0], slowdowns=[2.0, 2.0, 2.0],
                   results=[0, 1, 2]),
        suite.Pass(seconds=[1.5, 3.5, 1.2], slowdowns=[1.0, 1.0, 1.0],
                   results=[0, 1, 2]),
    ]
    metrics = suite._end_to_end(workload, [0, 1, 2], passes, setup_s=0.5)
    assert metrics["wall_s"] == 1.5 + 3.5 + 1.2
    assert metrics["cell_p50_s"] == 1.5
    assert metrics["cell_max_s"] == 3.5
    assert metrics["work_per_s"] == 3 / (1.5 + 3.5 + 1.2)


def test_host_slowdown_is_calibration_time_over_the_reference():
    reference = hostspeed.CALIBRATION_S
    assert hostspeed.slowdown(reference, reference) == 1.0
    assert hostspeed.slowdown(reference, 3 * reference) == 2.0
    assert hostspeed.calibration_s() > 0


class Counting(Flaky):
    """A workload that counts how often each unit runs."""

    def __init__(self):
        self.runs = [0, 0, 0]

    def execute(self, unit, cache):
        self.runs[unit] += 1
        return unit

    def check(self, unit, result):
        return None


@pytest.mark.parametrize("trace", [False, True])
def test_every_unit_runs_once_per_pass(trace):
    workload = Counting()
    info, result = suite.measure("counting", 1, 3, trace, workload=workload)
    assert result["correct"], info["failures"]
    # A traced run adds its untraced reference pass.
    assert workload.runs == [3 + trace] * 3


def test_the_pass_count_depends_on_run_length_and_workload_only():
    for name, pass_s in suite.PASS_S.items():
        assert suite.pass_count(name, 0.0) == 1
        assert suite.pass_count(name, 4 * pass_s) == 4


def test_the_grids_together_cover_every_table2_benchmark():
    cells = [
        cell for name in ("grid-multicast", "grid-unicast")
        for cell in suite.WORKLOADS[name].cells
    ]
    assert {benchmark for _, _, benchmark in cells} == set(suite.BENCHMARK_NAMES)


def test_noc_cross_check_flags_a_core_that_differs():
    workload = suite.NocLoad(rates=(0.15,), cycles=40)
    units = workload.units(1)
    point = workload.execute(units[0], None)
    skewed = dataclasses.replace(point, max_latency=point.max_latency + 1)
    assert workload.cross_check(units, [point, point]) == {}
    assert list(workload.cross_check(units, [point, skewed])) == [1]
