"""The replay loop runs on decoded columns and shared hit outcomes.

:meth:`NetworkedCacheSystem.replay` decodes each trace's address column
once per run, so neither the scalar :meth:`AddressMapper.decode` nor a
:class:`TraceAccess` row view is needed, and every hit returns a per-way
outcome built once per bank layout. D-NUCA, S-NUCA and CMP cells all run
through it. Each test runs a small cell once to build the layouts' tables,
then again, trace generation included, with both patched to raise and the
:class:`AccessOutcome` objects built for hits counted.

The rerun also counts :class:`AccessTiming` constructions and calls of the
two entry points the benchmark harness wraps by name to count transactions
and cache accesses: the engines' ``execute`` and :meth:`CacheArray.access`.
A replay must call each once per access, so the harness's counts stay
true, and build an :class:`AccessTiming` only for a validator.
"""

from collections import Counter

import pytest

from repro.cache.address import AddressMapper
from repro.cache.array import CacheArray
from repro.cache.bankset import AccessOutcome
from repro.core.flows import AccessTiming, StaticNUCAEngine, TransactionEngine
from repro.workloads import TraceAccess, TraceGenerator, profile_by_name

MEASURE = 150


def _patched_rerun(monkeypatch, cell):
    """``cell()`` run plainly, then under the patches; both results, the
    hit outcomes the patched run built, and its calls counted by name
    (``timings``, ``executes`` and ``accesses``)."""
    plain = cell()

    def refuse(*args, **kwargs):
        raise AssertionError("a replay loop built a per-access object")

    built = []
    original = AccessOutcome.__init__

    def counting(self, hit, *args, **kwargs):
        if hit:
            built.append((args, kwargs))
        original(self, hit, *args, **kwargs)

    calls = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(AddressMapper, "decode", refuse)
        patch.setattr(TraceAccess, "__init__", refuse)
        patch.setattr(AccessOutcome, "__init__", counting)
        patch.setattr(
            AccessTiming, "__init__", counted("timings", AccessTiming.__init__)
        )
        for engine in (TransactionEngine, StaticNUCAEngine):
            patch.setattr(engine, "execute", counted("executes", engine.execute))
        patch.setattr(CacheArray, "access", counted("accesses", CacheArray.access))
        patched = cell()
    return plain, patched, built, calls


def _trace_length(*workloads):
    return sum(len(trace) for _, trace, _ in workloads)


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

    plain, patched, built, calls = _patched_rerun(monkeypatch, cell)
    assert patched == plain
    assert patched.accesses == MEASURE and patched.content.hits > 0
    assert built == []
    assert calls == {
        "executes": MEASURE, "accesses": _trace_length(_workload("twolf"))
    }


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

    plain, patched, built, calls = _patched_rerun(monkeypatch, cell)
    assert patched == plain and patched.content.hits > 0
    assert built == []
    conservation_checks, timing_checks, length = checks[-1]
    assert conservation_checks == length
    assert timing_checks == MEASURE
    # The timing checker gets the one AccessTiming each access builds.
    assert calls == {"timings": MEASURE, "executes": MEASURE, "accesses": length}


def test_static_nuca_cell_needs_no_per_access_objects(monkeypatch):
    from repro.core.system import NetworkedCacheSystem

    def cell():
        profile, trace, warmup = _workload("mcf")
        system = NetworkedCacheSystem(design="A", scheme="static-nuca")
        return system.run(trace, profile, warmup=warmup)

    plain, patched, built, calls = _patched_rerun(monkeypatch, cell)
    assert patched == plain
    assert patched.accesses == MEASURE and patched.content.hits > 0
    assert built == []
    assert calls == {
        "executes": MEASURE, "accesses": _trace_length(_workload("mcf"))
    }


def test_cmp_cell_needs_no_per_access_objects(monkeypatch):
    from repro.cmp import CMPCacheSystem

    def cell():
        workloads = [_workload("twolf", 1), _workload("vpr", 2)]
        return CMPCacheSystem(design="F", num_cores=2).run(workloads)

    plain, patched, built, calls = _patched_rerun(monkeypatch, cell)
    assert patched == plain
    assert [core.accesses for core in patched.cores] == [MEASURE, MEASURE]
    assert built == []
    assert calls == {
        "executes": 2 * MEASURE,
        "accesses": _trace_length(_workload("twolf", 1), _workload("vpr", 2)),
    }
