"""Pinned digests of generated traces.

``tests/data/trace_golden.json`` holds the sha256 of the v1 text form
(:func:`~repro.workloads.traceio.dumps_trace`) of fixed generator calls:
``generate(2000)`` and ``generate_with_warmup(measure=500)`` for art, mcf
and applu at seeds 1 and 7, plus one ``index_space=4`` trace. The text
form carries every address, write flag and gap, so any drift in the
generator's output shows up here as a digest mismatch.

To regenerate after an *intentional* generator change::

    PYTHONPATH=src python tests/workloads/test_trace_golden.py

then review the diff like any other code change.
"""

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "trace_golden.json"

BENCHMARKS = ("art", "mcf", "applu")
SEEDS = (1, 7)
LENGTH = 2000
MEASURE = 500


def _cases():
    """(label, benchmark, seed, index_space, warmup?) of every pinned trace."""
    for benchmark in BENCHMARKS:
        for seed in SEEDS:
            yield f"{benchmark}@{seed}/generate", benchmark, seed, 8, False
            yield f"{benchmark}@{seed}/warmup", benchmark, seed, 8, True
    yield "art@1/warmup/index4", "art", 1, 4, True


def compute_digests() -> dict:
    from repro.workloads import TraceGenerator, profile_by_name
    from repro.workloads.traceio import dumps_trace

    digests = {}
    for label, benchmark, seed, index_space, warm in _cases():
        generator = TraceGenerator(
            profile_by_name(benchmark), seed=seed, index_space=index_space
        )
        if warm:
            trace, warmup = generator.generate_with_warmup(measure=MEASURE)
        else:
            trace, warmup = generator.generate(LENGTH), 0
        digests[label] = {
            "length": len(trace),
            "warmup": warmup,
            "sha256": hashlib.sha256(
                dumps_trace(trace).encode("utf-8")
            ).hexdigest(),
        }
    return digests


def test_generated_traces_match_pinned_digests():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert compute_digests() == golden


def _regenerate() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
