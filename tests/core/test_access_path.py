"""The replay loops run on decoded columns and shared hit outcomes.

Each loop decodes its trace's address column once per run, so neither the
scalar :meth:`AddressMapper.decode` nor a :class:`TraceAccess` row view is
needed, and every hit returns a per-way outcome built once per bank
layout. Each test runs a small cell once to build the layouts' tables,
then again, trace generation included, with both patched to raise and the
:class:`AccessOutcome` objects built for hits counted.
"""

import pytest

from repro.cache.address import AddressMapper
from repro.cache.bankset import AccessOutcome
from repro.workloads import TraceAccess, TraceGenerator, profile_by_name

MEASURE = 150


def _patched_rerun(monkeypatch, cell):
    """``cell()`` run plainly, then under the patches; both results and
    the hit outcomes the patched run built."""
    plain = cell()

    def refuse(*args, **kwargs):
        raise AssertionError("a replay loop built a per-access object")

    built = []
    original = AccessOutcome.__init__

    def counting(self, hit, *args, **kwargs):
        if hit:
            built.append((args, kwargs))
        original(self, hit, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(AddressMapper, "decode", refuse)
        patch.setattr(TraceAccess, "__init__", refuse)
        patch.setattr(AccessOutcome, "__init__", counting)
        patched = cell()
    return plain, patched, built


def _workload(benchmark, seed=5):
    profile = profile_by_name(benchmark)
    trace, warmup = TraceGenerator(profile, seed=seed).generate_with_warmup(
        measure=MEASURE
    )
    return profile, trace, warmup


@pytest.mark.parametrize(
    "design,scheme",
    [
        ("A", "multicast+fast_lru"),
        ("C", "unicast+lru"),
        ("F", "unicast+promotion"),
        ("D", "multicast+promotion"),
    ],
)
def test_networked_cell_needs_no_per_access_objects(monkeypatch, design, scheme):
    from repro.core.system import NetworkedCacheSystem

    def cell():
        profile, trace, warmup = _workload("twolf")
        system = NetworkedCacheSystem(design=design, scheme=scheme)
        return system.run(trace, profile, warmup=warmup)

    plain, patched, built = _patched_rerun(monkeypatch, cell)
    assert patched == plain
    assert patched.accesses == MEASURE and patched.content.hits > 0
    assert built == []


def test_checked_cell_runs_the_validator_path(monkeypatch):
    from repro.core.system import NetworkedCacheSystem
    from repro.validation import (
        BlockConservationChecker,
        TransactionTimingChecker,
    )

    checks = []

    def cell():
        profile, trace, warmup = _workload("art")
        system = NetworkedCacheSystem(design="B", scheme="multicast+fast_lru")
        conservation = BlockConservationChecker(shadow_lru=True)
        timing = TransactionTimingChecker()
        system.array.validator = conservation
        system.engine.validators.append(timing)
        result = system.run(trace, profile, warmup=warmup)
        checks.append((conservation.checked, timing.checked, len(trace)))
        return result

    plain, patched, built = _patched_rerun(monkeypatch, cell)
    assert patched == plain and patched.content.hits > 0
    assert built == []
    conservation_checks, timing_checks, length = checks[-1]
    assert conservation_checks == length
    assert timing_checks == MEASURE


def test_static_nuca_cell_needs_no_per_access_objects(monkeypatch):
    from repro.core.static_system import StaticNUCASystem

    def cell():
        profile, trace, warmup = _workload("mcf")
        return StaticNUCASystem(design="A").run(trace, profile, warmup=warmup)

    plain, patched, built = _patched_rerun(monkeypatch, cell)
    assert patched == plain
    assert patched.accesses == MEASURE and patched.content.hits > 0
    assert built == []


def test_cmp_cell_needs_no_per_access_objects(monkeypatch):
    from repro.cmp import CMPCacheSystem

    def cell():
        workloads = [_workload("twolf", 1), _workload("vpr", 2)]
        return CMPCacheSystem(design="F", num_cores=2).run(workloads)

    plain, patched, built = _patched_rerun(monkeypatch, cell)
    assert patched == plain
    assert [core.accesses for core in patched.cores] == [MEASURE, MEASURE]
    assert built == []
