"""Verdicts of compare.py on hand-made run sets."""

import json

import pytest

import compare

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "core.flows.txns", "unit": "count", "better": "higher"},
        {"name": "core.flows.execute_s", "unit": "s", "better": "lower"},
    ],
}

PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        (PARENT, "lower", "within bound"),
        ([v * 1.05 for v in PARENT], "lower", "within bound"),
        ([v * 1.2 for v in PARENT], "lower", "regressed"),
        ([v * 0.8 for v in PARENT], "lower", "improved"),
        ([v * 1.2 for v in PARENT], "higher", "improved"),
        ([v * 0.8 for v in PARENT], "higher", "regressed"),
        ([5.0, 15.0] * 5, "lower", "unresolved (spread > bound)"),
    ],
)
def test_verdicts(change, better, expected):
    assert compare.verdict(PARENT, change, better, 0.1) == expected


def test_improvement_needs_nine_wins_in_ten():
    change = [v * 0.9 for v in PARENT]
    change[0], change[1] = 11.0, 11.0
    assert compare.verdict(PARENT, change, "lower", 0.1) == "within bound"


@pytest.mark.parametrize("runs", [1, 3, 9])
def test_improvement_needs_ten_pairs(runs):
    parent = PARENT[:runs]
    change = [v * 0.8 for v in parent]
    assert compare.verdict(parent, change, "lower", 0.1) == (
        "unresolved (too few pairs)"
    )


def test_too_few_pairs_to_claim_a_gain_still_passes(tmp_path):
    base = [_run(tmp_path, "a", wall_s=10.0, work_per_s=5.0)]
    change = [_run(tmp_path, "b", wall_s=9.0, work_per_s=5.0)]
    lines, ok = compare.compare(base, change, SPEC)
    assert ok, lines
    assert any("unresolved (too few pairs)" in line for line in lines)


def test_wide_spread_with_every_change_run_better_is_not_unresolved():
    parent = [10.0, 14.0, 10.0, 14.0]
    change = [9.0, 9.5, 9.0, 9.5]
    # The change wins every pair but by less than the parent's IQR.
    assert compare.verdict(parent, change, "lower", 0.1) == "within bound"


def _run(tmp_path, name, seed=1, trace=0, sha="abc", correct=True, **metrics):
    info = {"workload": "noc-load", "seed": seed, "trace": trace,
            "results_sha": sha}
    result = {
        "correct": correct,
        "attempted": 8,
        "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": "?"} for k, v in metrics.items()},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(f"progress text\n{json.dumps(info)}\n{json.dumps(result)}\n")
    return compare.load_run(path)


def test_compare_passes_identical_sets(tmp_path):
    runs = [_run(tmp_path, f"r{i}", seed=i, wall_s=10.0, work_per_s=5.0)
            for i in range(3)]
    lines, ok = compare.compare(runs, runs, SPEC)
    assert ok, lines
    assert sum("within bound" in line for line in lines) == 2


def test_compare_flags_sha_layer_and_failure_mismatches(tmp_path):
    base = [
        _run(tmp_path, "a", wall_s=10.0, work_per_s=5.0),
        _run(tmp_path, "at", trace=1, **{"core.flows.txns": 7,
                                         "core.flows.execute_s": 1.0}),
    ]
    change = [
        _run(tmp_path, "b", sha="def", correct=False, wall_s=10.0,
             work_per_s=5.0),
        _run(tmp_path, "bt", trace=1, **{"core.flows.txns": 8,
                                         "core.flows.execute_s": 0.5}),
    ]
    lines, ok = compare.compare(base, change, SPEC)
    assert not ok
    text = "\n".join(lines)
    assert "FAILED run" in text
    assert "results_sha differs" in text
    assert "core.flows.txns differs" in text
    assert "core.flows.execute_s" in text  # host layer shown, not judged
