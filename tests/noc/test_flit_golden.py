"""Flit-level results of both flit cores pinned against a stored golden.

Three inputs, each run on the reference (object) core and on the array
core and checked against one golden written on the object core:

* the uniform-random load points of :func:`run_load_point` at injection
  rates 0.05 and 0.45 (8x8 mesh, 200 cycles, seed 1);
* ``repro serve`` cells on designs C and F (default mix and policy,
  1 500 cycles, load 3, seed 1): the run summary plus a SHA-256 over
  the canonical JSON of the telemetry snapshot;
* one isolated Multicast Fast-LRU hit (at the column's LRU bank) and one
  miss in column 0 of each Table-3 design, reduced to the cycle fields
  of their :class:`ProtocolTrace`.

The cross-core tests compare the two cores with each other, so they
cannot see a change that moves both alike (packets, flit types,
topologies and routing are shared). This golden can.

Regenerate (only for an intended change to flit-level timing; it runs
the object core) with::

    PYTHONPATH=src python tests/noc/test_flit_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.designs import DESIGN_NAMES
from repro.experiments.noc_load import run_load_point
from repro.noc.protocol import FlitLevelCacheProtocol, ProtocolTrace
from repro.stream import stream_spec_for

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "flit_golden.json"
LOAD_RATES = (0.05, 0.45)
SERVE_DESIGNS = ("C", "F")
SCHEME = "multicast+fast_lru"


def _load_point(rate: float, core: str = "object") -> dict:
    return asdict(run_load_point(rate, mesh_size=8, cycles=200, seed=1,
                                 core=core))


def _serve(design: str, core: str = "object") -> dict:
    spec = stream_spec_for(design, "drop-tail", "duo-bursty", seed=1,
                           cycles=1500, load=3.0, core=core)
    result = spec.execute()
    metrics = json.dumps(result.metrics, sort_keys=True)
    return {
        "summary": result.summary,
        "metrics_sha256": hashlib.sha256(metrics.encode()).hexdigest(),
    }


def _trace_fields(trace: ProtocolTrace) -> dict:
    return {
        "issued": trace.issued,
        "request_arrivals": {
            str(position): cycle
            for position, cycle in sorted(trace.request_arrivals.items())
        },
        "data_at_core": trace.data_at_core,
        "chain_done_at": trace.chain_done_at,
        "memory_requested_at": trace.memory_requested_at,
    }


def _protocol(design: str, outcome: str, core: str = "object") -> dict:
    protocol = FlitLevelCacheProtocol(design, SCHEME, core=core)
    if outcome == "hit":
        depth = protocol.geometry.banks_per_column(0) - 1
        trace = protocol.run_hit(0, depth)
    else:
        trace = protocol.run_miss(0)
    return _trace_fields(trace)


def _observe_all() -> dict:
    return {
        **{f"load/rate={rate:g}": _load_point(rate) for rate in LOAD_RATES},
        **{f"serve/{design}": _serve(design) for design in SERVE_DESIGNS},
        **{
            f"protocol/{design}/{outcome}": _protocol(design, outcome)
            for design in DESIGN_NAMES
            for outcome in ("hit", "miss")
        },
    }


def _golden(key: str) -> dict:
    return json.loads(GOLDEN_PATH.read_text())[key]


def _roundtrip(observed: dict) -> dict:
    """Compare in the golden's JSON form (string keys, lists)."""
    return json.loads(json.dumps(observed, sort_keys=True))


def _both_cores(*cases: tuple) -> list:
    """Each case as ``(*case, core)`` on both cores. The object core's
    runs keep the case's bare id, so the reference tests keep their names."""
    params = []
    for case in cases:
        name = "-".join(map(str, case))
        params.append(pytest.param(*case, "object", id=name))
        params.append(pytest.param(*case, "array", id=f"{name}-array"))
    return params


@pytest.mark.parametrize(
    ("rate", "core"), _both_cores(*((rate,) for rate in LOAD_RATES))
)
def test_load_point_matches_golden(rate, core):
    observed = _roundtrip(_load_point(rate, core))
    assert observed == _golden(f"load/rate={rate:g}")


@pytest.mark.parametrize(
    ("design", "core"), _both_cores(*((design,) for design in SERVE_DESIGNS))
)
def test_serve_cell_matches_golden(design, core):
    assert _roundtrip(_serve(design, core)) == _golden(f"serve/{design}")


@pytest.mark.parametrize(
    ("design", "outcome", "core"),
    _both_cores(*(
        (design, outcome)
        for design in DESIGN_NAMES
        for outcome in ("hit", "miss")
    )),
)
def test_protocol_trace_matches_golden(design, outcome, core):
    observed = _roundtrip(_protocol(design, outcome, core))
    assert observed == _golden(f"protocol/{design}/{outcome}")


if __name__ == "__main__":
    cells = _observe_all()
    GOLDEN_PATH.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} flit-level results to {GOLDEN_PATH}")
