"""Tests for the seeded fuzzer: generation, shrinking, bug detection."""

import random

import pytest

from repro.errors import ValidationError
from repro.faults import DegradedRouting
from repro.noc.arraycore import ArrayNetwork
from repro.noc.router import Router
from repro.noc.topology import MeshTopology
from repro.stream.arrivals import TenantSpec, tenant_mix
from repro.validation import (
    CacheCase,
    FlitWorkload,
    NocCase,
    OracleCase,
    PacketSpec,
    StreamWorkload,
    case_to_pytest,
    compare,
    fuzz,
    generate_case,
    run_case,
    shrink_case,
    shrink_list,
)
from repro.validation.fuzzer import FaultsCase


@pytest.fixture(autouse=True)
def _fresh_engine():
    from repro.experiments.runner import reset_memo

    reset_memo()
    yield
    reset_memo()


class TestGeneration:
    def test_same_seed_same_cases(self):
        for family in ("noc", "cache", "oracle"):
            first = generate_case(family, random.Random(f"7/{family}"))
            second = generate_case(family, random.Random(f"7/{family}"))
            assert first == second

    def test_families_produce_their_case_types(self):
        rng = random.Random(0)
        assert isinstance(generate_case("noc", rng), NocCase)
        assert isinstance(generate_case("cache", rng), CacheCase)
        assert isinstance(generate_case("oracle", rng), OracleCase)
        assert isinstance(generate_case("arraycore", rng), FlitWorkload)
        assert isinstance(generate_case("stream", rng), StreamWorkload)
        assert isinstance(generate_case("faults", rng), FaultsCase)

    def test_unknown_family_rejected(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="unknown fuzz family"):
            generate_case("quantum", random.Random(0))

    def test_case_reprs_round_trip(self):
        rng = random.Random(3)
        for family in ("noc", "cache", "oracle", "arraycore", "stream", "faults"):
            case = generate_case(family, rng)
            assert eval(repr(case)) == case  # repros are pasted verbatim


class TestCleanFuzzPasses:
    def test_small_campaign_is_green(self):
        report = fuzz(10, seed=1)
        assert report.ok, report.render()
        assert report.cases_run == 10
        assert "all passed" in report.summary_line()

    def test_single_family_campaigns(self):
        assert fuzz(4, seed=2, families=("noc",)).ok
        assert fuzz(4, seed=2, families=("cache",)).ok

    @pytest.mark.slow
    def test_acceptance_campaign_100_cases(self):
        report = fuzz(100, seed=1)
        assert report.ok, report.render()


class TestShrinkList:
    def test_shrinks_to_single_culprit(self):
        items = list(range(20))
        shrunk = shrink_list(items, lambda kept: 13 in kept)
        assert shrunk == [13]

    def test_keeps_interacting_pair(self):
        items = list(range(20))
        shrunk = shrink_list(items, lambda kept: 3 in kept and 17 in kept)
        assert shrunk == [3, 17]

    def test_never_returns_empty(self):
        shrunk = shrink_list([1, 2, 3], lambda kept: True)
        assert shrunk  # a repro with no content reproduces nothing


class TestReproEmission:
    def test_emitted_module_compiles_and_runs(self):
        cases = (
            NocCase(
                kind="mesh", cols=3, rows=3,
                packets=(PacketSpec("read_request", (0, 0), ((2, 2),)),),
            ),
            StreamWorkload(
                "C", (TenantSpec("alfa", rate_per_kcycle=40.0),), cycles=400
            ),
        )
        for case in cases:
            source = case_to_pytest(case, error="example failure")
            namespace = {}
            exec(compile(source, "<repro>", "exec"), namespace)
            namespace["test_fuzz_repro"]()  # the clean case just passes

    def test_repro_mentions_error_and_case(self):
        case = CacheCase(policy="lru", bank_of_way=(0, 1), accesses=((1, False),))
        source = case_to_pytest(case, error="boom")
        assert "# fails with: boom" in source
        assert "CacheCase" in source
        assert "run_case(case)" in source


def _replica_dropping_split(original):
    """A deliberately buggy ``_split_multicast`` that loses one replica."""

    def buggy(self, port, vc, flit, groups, cycle):
        before = self.stats.replications
        original(self, port, vc, flit, groups, cycle)
        if self.stats.replications > before:
            for unit in self.inputs.values():
                for bvc in unit:
                    if bvc.fifo and bvc.head().packet is flit.packet \
                            and bvc.head() is not flit:
                        bvc.fifo.clear()
                        bvc.active_packet = None

    return buggy


class TestInjectedBugIsCaught:
    def test_dropped_replica_caught_and_shrunk(self, monkeypatch):
        monkeypatch.setattr(
            Router, "_split_multicast",
            _replica_dropping_split(Router._split_multicast),
        )
        report = fuzz(20, seed=1, families=("noc",))
        assert not report.ok, "fuzzer missed a router that drops replicas"
        failure = report.failures[0]
        assert failure.family == "noc"
        # The shrunk case is a minimal repro: few packets, and at least
        # one multicast (the only traffic the bug can touch).
        assert isinstance(failure.shrunk, NocCase)
        assert len(failure.shrunk.packets) <= 2
        assert any(
            len(p.destinations) > 1 for p in failure.shrunk.packets
        )
        assert "NocCase" in failure.repro
        assert "run_case(case)" in failure.repro
        assert failure.index == int(failure.index)
        assert failure.render()

    def test_shrunk_repro_still_fails(self, monkeypatch):
        monkeypatch.setattr(
            Router, "_split_multicast",
            _replica_dropping_split(Router._split_multicast),
        )
        report = fuzz(20, seed=1, families=("noc",))
        shrunk = report.failures[0].shrunk
        with pytest.raises(Exception):
            run_case(shrunk)

    def test_failing_index_reproduces_in_isolation(self, monkeypatch):
        monkeypatch.setattr(
            Router, "_split_multicast",
            _replica_dropping_split(Router._split_multicast),
        )
        report = fuzz(20, seed=1, families=("noc",))
        failure = report.failures[0]
        rng = random.Random(f"{report.seed}/{failure.index}/{failure.family}")
        assert generate_case(failure.family, rng) == failure.case


def _reversed_rank_init(original):
    """An ``ArrayNetwork.__init__`` whose switch arbitration ranks every
    router's inputs in reverse of the object core's ``str(port)`` order."""

    def mutant(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._in_sort_rank = [
            [len(rank) - 1 - position for position in rank]
            for rank in self._in_sort_rank
        ]

    return mutant


class TestInjectedArrayBugIsCaught:
    @pytest.fixture(autouse=True)
    def _reversed_rank(self, monkeypatch):
        monkeypatch.setattr(
            ArrayNetwork, "__init__", _reversed_rank_init(ArrayNetwork.__init__)
        )

    def test_compare_names_the_first_differing_delivery(self):
        # Two packets contend for router (1, 0)'s ejection port in the
        # same cycle; the reversed rank grants the other one first.
        workload = FlitWorkload("mesh", 3, 1, packets=(
            PacketSpec("hit_data", (0, 0), ((1, 0),)),
            PacketSpec("hit_data", (2, 0), ((1, 0),)),
        ))
        divergence = compare(workload)
        assert divergence is not None
        assert divergence.observable == "deliveries"
        assert (divergence.reference, divergence.core) == ("object", "array")
        assert divergence.expected != divergence.actual
        assert divergence.workload == workload
        assert "diverged from the object core on deliveries" in (
            divergence.render()
        )

    def test_stream_family_runs_compare(self):
        # The reversed arbiter reorders contended deliveries; the stream
        # family reports it through compare.
        case = StreamWorkload("C", tenant_mix("duo-bursty", 3.0), cycles=600)
        with pytest.raises(ValidationError, match="diverged from the object"):
            run_case(case)

    def test_arraycore_family_catches_and_shrinks(self):
        report = fuzz(8, seed=1, families=("arraycore",))
        assert not report.ok, "fuzzer missed a mis-ranked array arbiter"
        failure = report.failures[0]
        assert failure.family == "arraycore"
        assert isinstance(failure.shrunk, FlitWorkload)
        # Arbitration needs two contending packets, and that is all.
        assert len(failure.shrunk.packets) <= 2
        assert "FlitWorkload" in failure.repro
        namespace = {}
        exec(compile(failure.repro, "<repro>", "exec"), namespace)
        with pytest.raises(ValidationError, match="on deliveries"):
            namespace["test_fuzz_repro"]()


def _u_path_through_dead_pivot_row(self, current, destination):
    """``DegradedRouting._find_u_path`` with a planted bug: a pivot-row
    channel only has to exist, not be alive."""
    if not isinstance(self.topology, MeshTopology):
        return None
    sx, sy = current
    dx, dy = destination
    step = 1 if dx > sx else -1
    for r in range(min(sy, dy), -1, -1):
        path = [current]
        ok = True
        for y in range(sy, r, -1):
            ok = ok and self._channel_alive((sx, y), (sx, y - 1))
            path.append((sx, y - 1))
        x = sx
        while ok and x != dx:
            ok = self.topology.has_channel((x, r), (x + step, r))  # the plant
            path.append((x + step, r))
            x += step
        for y in range(r, dy):
            ok = ok and self._channel_alive((dx, y), (dx, y + 1))
            path.append((dx, y + 1))
        if ok and path[-1] == destination:
            return path
    return None


class TestInjectedRerouteBugIsCaught:
    @pytest.mark.parametrize(
        "proof_check", [True, False], ids=["verified", "flit-run-only"]
    )
    def test_faults_family_catches_a_dead_channel_crossing(
        self, monkeypatch, proof_check
    ):
        import repro.faults

        monkeypatch.setattr(
            DegradedRouting, "_find_u_path", _u_path_through_dead_pivot_row
        )
        if not proof_check:
            # The checked flit run alone must see the crossing too.
            monkeypatch.setattr(
                repro.faults, "verify_degraded", lambda *args, **kw: {}
            )
        report = fuzz(12, seed=3, families=("faults",))
        assert not report.ok, "fuzzer missed a U-route over a dead channel"
        failure = report.failures[0]
        assert failure.family == "faults"
        assert "dead channel" in failure.error
        assert isinstance(failure.shrunk, FaultsCase)
        assert len(failure.shrunk.packets) < len(failure.case.packets)
        with pytest.raises(ValidationError, match="dead channel"):
            run_case(failure.shrunk)


class TestCacheShrinking:
    def test_cache_case_shrinks_access_tail(self):
        # A synthetic always-failing cache case: the shrinker must cut the
        # access list down without ever producing an empty sequence.
        case = CacheCase(
            policy="lru", bank_of_way=(0, 0, 1, 1),
            accesses=tuple((t % 8, False) for t in range(30)),
        )
        calls = []

        def run_and_fail(c):
            calls.append(c)
            raise AssertionError("synthetic failure")

        import repro.validation.fuzzer as fuzzer_module

        original = fuzzer_module.run_case
        fuzzer_module.run_case = run_and_fail
        try:
            shrunk = shrink_case(case)
        finally:
            fuzzer_module.run_case = original
        assert isinstance(shrunk, CacheCase)
        assert 1 <= len(shrunk.accesses) < 30
