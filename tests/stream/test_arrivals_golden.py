"""Open-loop arrival schedules pinned against a stored golden.

Every named tenant mix at loads 1 and 4 and seeds 1 and 7 is generated
over 10 000 cycles (the ``repro serve`` default horizon) and reduced to a
request count plus a SHA-256 over every request's cycle, tenant, column,
hit verdict and exact depth. Any change to how arrivals are drawn,
thinned, ranked or classified moves a digest.

Regenerate (only for an intended change to the arrival processes) with::

    PYTHONPATH=src python tests/stream/test_arrivals_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.stream.arrivals import MIX_NAMES, generate_arrivals, tenant_mix

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "stream_arrivals_golden.json"
)
LOADS = (1.0, 4.0)
SEEDS = (1, 7)
CYCLES = 10_000


def _observe(mix: str, load: float, seed: int) -> dict:
    requests = generate_arrivals(tenant_mix(mix, load), CYCLES, seed)
    digest = hashlib.sha256()
    for request in requests:
        digest.update(
            f"{request.cycle}|{request.tenant}|{request.column}|"
            f"{int(request.hit)}|{request.depth_unit.hex()}\n".encode()
        )
    return {"requests": len(requests), "sha256": digest.hexdigest()}


def _key(mix: str, load: float, seed: int) -> str:
    return f"{mix}/load={load:g}/seed={seed}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("mix", MIX_NAMES)
def test_schedule_matches_golden(mix, load, seed):
    golden = json.loads(GOLDEN_PATH.read_text())[_key(mix, load, seed)]
    assert _observe(mix, load, seed) == golden


if __name__ == "__main__":
    cells = {
        _key(mix, load, seed): _observe(mix, load, seed)
        for mix in MIX_NAMES
        for load in LOADS
        for seed in SEEDS
    }
    GOLDEN_PATH.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} schedules to {GOLDEN_PATH}")
