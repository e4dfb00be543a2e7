"""Degraded-mode transaction timing pinned against a stored golden.

Each cell runs the transaction model over a fault plan with dead links and
transient losses, so every traversal kind (multicast chains, Fast-LRU
eviction chains, unicast walks, LRU shift chains, Promotion swaps,
waypoint-read hit replies, fills and notifications) goes through
rerouting and the seeded retry loop. The golden holds the cycles, the contents digest and
the fault, traversal and bank counters of every cell; any change in how
degraded traversals are reserved, retried or accounted moves one of them.

Regenerate (only for an intended timing change) with::

    PYTHONPATH=src python tests/faults/test_txn_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "txn_fault_golden.json"
)
DESIGNS = ("A", "C", "F")
SCHEMES = (
    "multicast+fast_lru",
    "multicast+promotion",
    "unicast+fast_lru",
    "unicast+lru",
    "unicast+promotion",
)
#: Registry counters pinned per cell, by name prefix.
PINNED_PREFIXES = (
    "faults.",
    "noc.reroute.",
    "noc.traversal.",
    "noc.router.",
    "cache.bank.",
    "cache.txn.",
)


def _spec(design: str, scheme: str):
    from repro.experiments.runner import CellSpec

    return CellSpec(
        design=design, scheme=scheme, benchmark="art", measure=300, seed=1,
        link_fault_rate=3e-2, transient_fault_rate=3e-2, fault_seed=7,
    )


def _observe(result) -> dict:
    metrics = json.loads(json.dumps(result.metrics))
    return {
        "cycles": result.cycles,
        "contents_digest": result.contents_digest,
        "metrics": {
            name: entry["value"]
            for name, entry in sorted(metrics.items())
            if name.startswith(PINNED_PREFIXES) and "value" in entry
        },
    }


def _run(design: str, scheme: str) -> dict:
    from repro.experiments.runner import reset_memo, run_cells

    reset_memo()
    [result] = run_cells([_spec(design, scheme)], jobs=1, cache=None)
    reset_memo()
    return _observe(result)


class _DegradedAccessCounter:
    """Transaction validator counting the accesses whose flow moved the
    geometry's reroute or retry counters."""

    def __init__(self, geometry) -> None:
        self.geometry = geometry
        self.stats = None
        self.seen = 0
        self.degraded = 0

    def on_transaction(self, column, outcome, timing) -> None:
        stats = self.geometry.fault_stats
        if stats is not self.stats:  # the warm-up reset starts new stats
            self.stats, self.seen = stats, 0
        total = stats.rerouted_traversals + stats.retries
        if total > self.seen:
            self.degraded += 1
        self.seen = total


def test_early_miss_accesses_count_as_degraded(monkeypatch):
    # An early miss skips the column search, but its memory legs, fill
    # and demotion chain are rerouted and retried like any other flow's.
    from dataclasses import replace

    from repro.experiments import runner

    systems = []
    build = runner._build_system

    def build_counted(spec):
        system = build(spec)
        system.engine.validators.append(_DegradedAccessCounter(system.geometry))
        systems.append(system)
        return system

    monkeypatch.setattr(runner, "_build_system", build_counted)
    spec = replace(_spec("A", "unicast+lru"), early_miss_detection=True)
    runner.reset_memo()
    [result] = runner.run_cells([spec], jobs=1, cache=None)
    runner.reset_memo()
    [system] = systems
    assert system.partial_tags.early_misses > 0
    [counter] = system.engine.validators
    assert counter.degraded > 0
    assert result.metrics["cache.txn.degraded_accesses"]["value"] == (
        counter.degraded
    )


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("design", DESIGNS)
def test_degraded_cell_matches_golden(design, scheme):
    golden = json.loads(GOLDEN_PATH.read_text())[f"{design}/{scheme}"]
    observed = _run(design, scheme)
    # Every cell retries; the mesh also reroutes around its dead links
    # (halo spikes have no detours, so their plans kill no routed link).
    assert observed["metrics"]["faults.retries"] > 0
    if design == "A":
        assert observed["metrics"]["faults.rerouted_packets"] > 0
    assert observed == golden


if __name__ == "__main__":
    cells = {
        f"{design}/{scheme}": _run(design, scheme)
        for design in DESIGNS
        for scheme in SCHEMES
    }
    GOLDEN_PATH.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}")
