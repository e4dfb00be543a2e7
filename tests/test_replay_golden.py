"""Golden runs of the S-NUCA and CMP cells the figure goldens do not reach.

``tests/data/replay_golden.json`` pins, exactly:

* the output of ``repro snuca --benchmark art --measure 300``, every
  observable of its S-NUCA and D-NUCA runs, and an S-NUCA run on mcf
  (art hits every measured access; mcf takes the miss path);
* the output of one ``repro cmp`` cell (``--designs F --cores 2 --measure
  300``) and every per-core result of that cell.

To regenerate after an *intentional* model change::

    PYTHONPATH=src python tests/test_replay_golden.py

then review the diff like any other code change.
"""

import dataclasses
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "replay_golden.json"

SNUCA_ARGV = ["snuca", "--benchmark", "art", "--measure", "300"]
CMP_ARGV = ["cmp", "--designs", "F", "--cores", "2", "--measure", "300"]


def _run_observables(result) -> dict:
    return {
        "scheme": result.scheme,
        "benchmark": result.benchmark,
        "accesses": result.accesses,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "hits": result.content.hits,
        "misses": result.content.misses,
        "writebacks": result.content.writebacks,
        "hits_per_bank": result.latency.hits_per_bank,
        "latency_sum": result.latency.total_sum,
        "network_latency_sum": result.latency.network_sum,
        "bank_latency_sum": result.latency.bank_sum,
        "memory_latency_sum": result.latency.memory_sum,
        "memory_reads": result.memory_reads,
        "memory_writebacks": result.memory_writebacks,
        "contents_digest": result.contents_digest,
    }


def _stdout(argv: list[str]) -> str:
    from repro.cli import build_parser

    args = build_parser().parse_args(argv)
    return args.handler(args)


def compute_snapshot() -> dict:
    from repro.cmp import CMPCacheSystem
    from repro.core.system import NetworkedCacheSystem
    from repro.experiments.runner import DEFAULT_MIX
    from repro.workloads import TraceGenerator, profile_by_name

    profile = profile_by_name("art")
    trace, warmup = TraceGenerator(profile, seed=1).generate_with_warmup(
        measure=300
    )
    snuca = NetworkedCacheSystem(design="A", scheme="static-nuca").run(
        trace, profile, warmup=warmup
    )
    mcf = profile_by_name("mcf")
    mcf_trace, mcf_warmup = TraceGenerator(mcf, seed=1).generate_with_warmup(
        measure=300
    )
    snuca_mcf = NetworkedCacheSystem(design="A", scheme="static-nuca").run(
        mcf_trace, mcf, warmup=mcf_warmup
    )
    dnuca = NetworkedCacheSystem(design="A", scheme="multicast+fast_lru").run(
        trace, profile, warmup=warmup
    )
    workloads = []
    for i, name in enumerate(DEFAULT_MIX[:2]):
        core = profile_by_name(name)
        workloads.append(
            (core, *TraceGenerator(core, seed=1 + i).generate_with_warmup(300))
        )
    cmp = CMPCacheSystem(design="F", num_cores=2).run(workloads)
    return {
        "snuca": {
            "stdout": _stdout(SNUCA_ARGV),
            "s-nuca": _run_observables(snuca),
            "d-nuca": _run_observables(dnuca),
            "s-nuca-mcf": _run_observables(snuca_mcf),
        },
        "cmp": {
            "stdout": _stdout(CMP_ARGV),
            "cores": [dataclasses.asdict(core) for core in cmp.cores],
        },
    }


def test_replay_loops_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    # JSON round-trip the live snapshot so both sides have identical type
    # coercions (int keys -> str); floats survive it exactly.
    assert json.loads(json.dumps(compute_snapshot())) == golden


def _regenerate() -> None:
    snapshot = json.loads(json.dumps(compute_snapshot()))
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
