"""Golden-run regression: a fixed-seed Figure 9 slice, compared exactly.

The snapshot in ``tests/data/figure9_golden.json`` pins every observable
a figure could read off three Figure 9 cells (Designs A, C, F on ``art``
under Multicast Fast-LRU) at ``measure=150, seed=1``. Any behavioural
drift in the cache model, the network timing, or the trace generator
shows up as an exact mismatch here before it silently bends the curves.

To regenerate after an *intentional* model change::

    PYTHONPATH=src python tests/validation/test_golden.py

then review the diff like any other code change.
"""

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "figure9_golden.json"

DESIGNS = ("A", "C", "F")
SCHEME = "multicast+fast_lru"
BENCHMARK = "art"
MEASURE = 150
SEED = 1


def compute_snapshot() -> dict:
    """Every golden observable of the pinned cells, JSON-ready."""
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import reset_memo, run_cells, spec_for

    reset_memo()
    config = ExperimentConfig(measure=MEASURE, seed=SEED)
    specs = [spec_for(d, SCHEME, BENCHMARK, config) for d in DESIGNS]
    results = run_cells(specs, jobs=1, cache=None)
    reset_memo()
    cells = {}
    for result in results:
        cells[result.design] = {
            "scheme": result.scheme,
            "benchmark": result.benchmark,
            "accesses": result.accesses,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "ipc": result.ipc,
            "hit_rate": result.hit_rate,
            "hits": result.content.hits,
            "misses": result.content.misses,
            "writebacks": result.content.writebacks,
            "average_latency": result.average_latency,
            "average_hit_latency": result.average_hit_latency,
            "average_miss_latency": result.average_miss_latency,
            "network_latency_sum": result.latency.network_sum,
            "bank_latency_sum": result.latency.bank_sum,
            "memory_latency_sum": result.latency.memory_sum,
            "memory_reads": result.memory_reads,
            "memory_writebacks": result.memory_writebacks,
            "contents_digest": result.contents_digest,
            "metrics": result.metrics,
        }
    return {
        "scheme": SCHEME,
        "benchmark": BENCHMARK,
        "measure": MEASURE,
        "seed": SEED,
        "cells": cells,
    }


class TestGoldenFigure9Slice:
    def test_snapshot_matches_exactly(self):
        assert GOLDEN_PATH.exists(), (
            f"{GOLDEN_PATH} missing; generate it with "
            "`PYTHONPATH=src python tests/validation/test_golden.py`"
        )
        golden = json.loads(GOLDEN_PATH.read_text())
        # JSON round-trip the live snapshot so both sides have identical
        # type coercions (tuples->lists, int keys->str); floats survive
        # this exactly (repr round-trip), so the compare stays bitwise.
        live = json.loads(json.dumps(compute_snapshot()))
        assert live == golden

    def test_golden_file_is_normalized_json(self):
        text = GOLDEN_PATH.read_text()
        golden = json.loads(text)
        assert text == json.dumps(golden, indent=2, sort_keys=True) + "\n"
        assert set(golden["cells"]) == set(DESIGNS)


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    snapshot = json.loads(json.dumps(compute_snapshot()))
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
