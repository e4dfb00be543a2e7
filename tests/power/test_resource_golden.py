"""Resource creation order and exact energy pinned against a stored golden.

The energy meter sums bank and channel energy in the insertion order of
the geometry's resource dicts, so a change that creates resources in a
different order can move the float totals by an ulp while every
``pytest.approx`` check still passes. Each cell here pins the key order
of both dicts, every resource's counters, and the meter's bank, router
and link energy compared with ``==``.

Regenerate (only for an intended change) with::

    PYTHONPATH=src python tests/power/test_resource_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "resource_golden.json"
)
DESIGNS = ("A", "F")
SCHEMES = (
    "unicast+promotion",
    "unicast+lru",
    "unicast+fast_lru",
    "multicast+fast_lru",
)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _resources(resources: dict) -> dict:
    """Key order and per-resource counters of one resource dict."""
    return {
        "count": len(resources),
        "keys_sha": _digest([str(key) for key in resources]),
        "counters_sha": _digest([
            (r.grants, r.busy_cycles, r.queued_cycles, r.waits)
            for r in resources.values()
        ]),
    }


def _run(design: str, scheme: str) -> dict:
    from repro.core.system import NetworkedCacheSystem
    from repro.power import EnergyMeter
    from repro.workloads import TraceGenerator, profile_by_name

    profile = profile_by_name("twolf")
    trace, warmup = TraceGenerator(profile, seed=2).generate_with_warmup(
        measure=800
    )
    system = NetworkedCacheSystem(design=design, scheme=scheme)
    result = system.run(trace, profile, warmup=warmup)
    report = EnergyMeter().measure(system, result)
    channels, banks = system.geometry.resources()
    return {
        "banks": _resources(banks),
        "channels": _resources(channels),
        "bank_pj": report.bank_pj,
        "router_pj": report.router_pj,
        "link_pj": report.link_pj,
    }


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("design", DESIGNS)
def test_resources_and_energy_match_golden(design, scheme):
    golden = json.loads(GOLDEN_PATH.read_text())[f"{design}/{scheme}"]
    observed = _run(design, scheme)
    assert observed["banks"] == golden["banks"]
    assert observed["channels"] == golden["channels"]
    for part in ("bank_pj", "router_pj", "link_pj"):
        assert observed[part] == golden[part], part


if __name__ == "__main__":
    cells = {
        f"{design}/{scheme}": _run(design, scheme)
        for design in DESIGNS
        for scheme in SCHEMES
    }
    GOLDEN_PATH.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}")
