"""Seeded fuzzer: random geometries, traffic, and traces under checkers.

``fuzz(n, seed)`` samples cases from six families:

* **noc** -- a random mesh / simplified-mesh / halo geometry with random
  unicast and multicast packets at random injection cycles, driven to
  drain under the full network checker set (conservation, credit loop,
  XYX channel order, delivery completeness, stall watchdog);
* **cache** -- a random bank-set shape (associativity, bank grouping) and
  replacement policy fed a random access sequence in a deliberately tiny
  tag space (collisions are where eviction-chain bugs live) under the
  block-conservation and shadow-LRU checkers;
* **oracle** -- a random Table-3 design / scheme / benchmark cell at a
  small measure length through :func:`repro.validation.run_oracle`;
* **faults** -- a noc-family geometry and traffic over a seeded set of
  link cuts, routed by :class:`repro.faults.DegradedRouting`: the routes
  must pass :func:`repro.faults.verify_degraded`, and every destination
  they still reach must drain under the full network checker set without
  a flit ever crossing a dead channel;
* **arraycore** -- a :class:`~repro.validation.differential.FlitWorkload`
  over a noc-family geometry (half the cases sampled at saturated /
  near-saturated injection rates around the knee, each with a random
  windowed-series size or none) run through
  :func:`repro.validation.differential.compare`: the array core must
  match the object core on every observable, from normalized deliveries
  to the full published registry snapshot;
* **stream** -- a :class:`~repro.validation.differential.StreamWorkload`:
  a random multi-tenant open-loop mix (random rates, Zipf skews,
  catalogs, and arrival processes) served through
  :class:`repro.stream.service.StreamService` on a random design and
  admission policy, run through
  :func:`repro.validation.differential.compare` across the two cores,
  then checked for admission conservation (offered == admitted +
  rejected == completed + rejected after drain), object-core
  determinism under re-run, and merge order-independence of the SLO
  telemetry.

Every case is a plain dataclass whose ``repr`` round-trips, so a failing
case shrinks (greedy delta-debugging over its packets / accesses /
measure) and is emitted as a ready-to-paste pytest function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.errors import ValidationError
from repro.stream.arrivals import ARRIVAL_PROCESSES, TenantSpec
from repro.validation.differential import (
    FlitWorkload,
    PacketSpec,
    StreamWorkload,
    build_topology,
    compare,
    observe,
)
from repro.validation.invariants import (
    BlockConservationChecker,
    default_network_checkers,
    run_with_checkers,
)

#: Message names usable for fuzz traffic (mix of 1- and 5-flit packets).
_UNICAST_MESSAGES = ("read_request", "hit_data", "memory_fill", "writeback")
_CONTROL_MESSAGES = ("read_request", "miss_notify", "completion_notify")

_POLICY_CHOICES = (
    "lru",
    "fast_lru",
    "promotion:recursive",
    "promotion:zero_copy",
    "promotion:one_copy",
)

_ORACLE_DESIGNS = ("A", "B", "C", "D", "E", "F")
_ORACLE_SCHEMES = (
    "multicast+fast_lru",
    "multicast+promotion",
    "unicast+lru",
    "unicast+fast_lru",
)
_ORACLE_BENCHMARKS = ("art", "twolf", "mcf")

#: Windowed-series sizes of arraycore cases (0 = series off).
_WINDOWS = (0, 2, 4, 8, 16, 32, 64, 128)


# -- case shapes (reprs must round-trip: they become emitted repros) ---------


@dataclass(frozen=True)
class NocCase:
    """A random network geometry plus its traffic."""

    kind: str  # "mesh" | "simplified" | "halo"
    cols: int
    rows: int
    packets: tuple = ()


@dataclass(frozen=True)
class CacheCase:
    """A random bank-set shape plus its access sequence."""

    policy: str  # a _POLICY_CHOICES entry
    bank_of_way: tuple = (0,)
    accesses: tuple = ()  # of (tag, is_write)


@dataclass(frozen=True)
class OracleCase:
    """One differential-oracle cell."""

    design: str
    scheme: str
    benchmark: str
    measure: int
    seed: int
    sample: int = 2


@dataclass(frozen=True)
class FaultsCase:
    """A random geometry + sampled link cuts + traffic on degraded routes.

    The degraded routes must pass the proof check; the run injects only
    toward destinations they still reach and must drain under the full
    network checker set with no flit on a dead channel.
    """

    kind: str  # "mesh" | "simplified" | "halo"
    cols: int
    rows: int
    link_rate: float = 0.0
    fault_seed: int = 0
    packets: tuple = ()


# -- generation ---------------------------------------------------------------


def _xyx_legal(src: tuple, dst: tuple) -> bool:
    """True when src->dst traffic respects the Fig. 5(b) enumeration on a
    simplified mesh (same column, or an endpoint on the row-0 spine)."""
    return src[0] == dst[0] or src[1] == 0 or dst[1] == 0


def _make_noc_case(rng: random.Random) -> NocCase:
    kind = rng.choice(("mesh", "simplified", "halo"))
    cols = rng.randint(2, 5)
    rows = rng.randint(2, 5)
    topology = build_topology(kind, cols, rows)
    nodes = sorted(topology.nodes, key=str)
    row0 = [n for n in nodes if not isinstance(n[0], str) and n[1] == 0]
    packets = []
    for _ in range(rng.randint(1, 10)):
        inject_cycle = rng.randint(0, 20)
        multicast = kind != "mesh" and rng.random() < 0.4
        if multicast:
            source = rng.choice(row0) if kind == "simplified" else rng.choice(nodes)
            width = rng.randint(2, min(6, len(nodes)))
            destinations = tuple(sorted(rng.sample(nodes, width), key=str))
            message = rng.choice(_CONTROL_MESSAGES)
        else:
            while True:
                source = rng.choice(nodes)
                destination = rng.choice(nodes)
                if kind != "simplified" or _xyx_legal(source, destination):
                    break
            destinations = (destination,)
            message = rng.choice(_UNICAST_MESSAGES)
        packets.append(PacketSpec(message, source, destinations, inject_cycle))
    return NocCase(kind, cols, rows, tuple(packets))


def _make_cache_case(rng: random.Random) -> CacheCase:
    associativity = rng.randint(2, 16)
    num_banks = rng.randint(1, associativity)
    bank_of_way = tuple(
        sorted(min(way * num_banks // associativity, num_banks - 1)
               for way in range(associativity))
    )
    policy = rng.choice(_POLICY_CHOICES)
    accesses = tuple(
        (rng.randint(0, 7), rng.random() < 0.25)
        for _ in range(rng.randint(4, 40))
    )
    return CacheCase(policy, bank_of_way, accesses)


def _make_oracle_case(rng: random.Random) -> OracleCase:
    return OracleCase(
        design=rng.choice(_ORACLE_DESIGNS),
        scheme=rng.choice(_ORACLE_SCHEMES),
        benchmark=rng.choice(_ORACLE_BENCHMARKS),
        measure=rng.choice((90, 120, 150, 180, 210, 240)),
        seed=rng.randint(1, 5),
        sample=2,
    )


def _make_arraycore_case(rng: random.Random) -> FlitWorkload:
    base = _make_noc_case(rng)
    sparse = FlitWorkload(
        base.kind,
        base.cols,
        base.rows,
        single_cycle=rng.random() < 0.7,
        window=rng.choice(_WINDOWS),
        packets=base.packets,
    )
    if rng.random() < 0.5:
        # Sparse protocol-paced traffic: the noc family's own packets.
        return sparse
    # Saturated / near-saturated load point: a dense stream injected at
    # rates sampled around the saturation knee (one packet every 1-3
    # cycles), optionally hotspotted toward a single node so ejection
    # tree contention pushes a mesh past the knee even at rate 1.
    topology = build_topology(base.kind, base.cols, base.rows)
    nodes = sorted(topology.nodes, key=str)
    row0 = [n for n in nodes if not isinstance(n[0], str) and n[1] == 0]
    spacing = rng.choice((1, 1, 2, 3))
    hotspot = rng.choice((0.0, 0.35, 0.6)) if base.kind == "mesh" else 0.0
    hot = rng.choice(nodes)
    packets = []
    for i in range(rng.randint(30, 120)):
        multicast = base.kind != "mesh" and rng.random() < 0.3
        if multicast:
            source = (
                rng.choice(row0) if base.kind == "simplified"
                else rng.choice(nodes)
            )
            width = rng.randint(2, min(6, len(nodes)))
            destinations = tuple(sorted(rng.sample(nodes, width), key=str))
            message = rng.choice(_CONTROL_MESSAGES)
        else:
            while True:
                source = rng.choice(nodes)
                if hotspot and source != hot and rng.random() < hotspot:
                    destination = hot
                else:
                    destination = rng.choice(nodes)
                if source == destination:
                    continue
                if base.kind != "simplified" or _xyx_legal(source, destination):
                    break
            destinations = (destination,)
            message = rng.choice(_UNICAST_MESSAGES)
        packets.append(PacketSpec(message, source, destinations, i * spacing))
    return replace(sparse, packets=tuple(packets))


def _make_faults_case(rng: random.Random) -> FaultsCase:
    base = _make_noc_case(rng)
    return FaultsCase(
        kind=base.kind,
        cols=base.cols,
        rows=base.rows,
        link_rate=rng.choice((0.08, 0.15, 0.25)),
        fault_seed=rng.randint(0, 99),
        packets=base.packets,
    )


#: Tenant names for generated stream mixes (order = tenant count).
_STREAM_TENANTS = ("alfa", "bravo", "chad")

#: One design per topology family keeps stream cases cheap but covers
#: the mesh, simplified-mesh, and halo service paths (C is the small
#: 16x4 design; F exercises the off-network halo memory leg).
_STREAM_DESIGNS = ("A", "C", "F")


def _make_stream_case(rng: random.Random) -> StreamWorkload:
    from repro.stream.service import ADMISSION_POLICIES

    tenants = tuple(
        TenantSpec(
            _STREAM_TENANTS[i],
            rate_per_kcycle=float(rng.randint(10, 60)),
            zipf_alpha=rng.choice((0.6, 0.8, 0.9, 1.1)),
            catalog_blocks=rng.choice((64, 128, 256, 512)),
            process=rng.choice(ARRIVAL_PROCESSES),
        )
        for i in range(rng.randint(1, len(_STREAM_TENANTS)))
    )
    return StreamWorkload(
        design=rng.choice(_STREAM_DESIGNS),
        tenants=tenants,
        cycles=rng.choice((400, 600, 800, 1200)),
        policy=rng.choice(ADMISSION_POLICIES),
        queue_limit=rng.randint(4, 16),
        max_outstanding=rng.randint(2, 8),
        window=rng.choice((16, 32, 64)),
        seed=rng.randint(0, 99),
    )


_FAMILY_MAKERS = {
    "noc": _make_noc_case,
    "cache": _make_cache_case,
    "oracle": _make_oracle_case,
    "faults": _make_faults_case,
    "arraycore": _make_arraycore_case,
    "stream": _make_stream_case,
}

DEFAULT_FAMILIES = (
    "noc", "cache", "faults", "arraycore", "noc", "arraycore",
    "cache", "oracle", "arraycore", "arraycore", "stream",
)


def generate_case(family: str, rng: random.Random):
    """One random case of *family* (a :data:`DEFAULT_FAMILIES` name:
    'noc' | 'cache' | 'oracle' | 'faults' | 'arraycore' | 'stream')."""
    try:
        maker = _FAMILY_MAKERS[family]
    except KeyError:
        raise ValidationError(
            f"unknown fuzz family {family!r}; known: {sorted(_FAMILY_MAKERS)}"
        ) from None
    return maker(rng)


# -- execution ----------------------------------------------------------------


def _run_checked(topology, packets, routing=None):
    """Drain *packets* on an object-core network under every checker."""
    from repro.noc.network import Network
    from repro.noc.packet import MessageType, Packet

    network = Network(topology, routing=routing)
    for checker in default_network_checkers(topology):
        network.install_checker(checker)
    for spec in packets:
        packet = Packet(
            MessageType(spec.message), spec.source, tuple(spec.destinations)
        )
        network.schedule_injection(packet, at_cycle=spec.inject_cycle)
    run_with_checkers(network, max_cycles=20_000, stall_limit=300)
    return network


def _run_noc_case(case: NocCase) -> None:
    _run_checked(build_topology(case.kind, case.cols, case.rows), case.packets)


def _run_stream_case(case: StreamWorkload) -> None:
    from repro.telemetry.registry import MetricsRegistry

    divergence = compare(case)
    if divergence is not None:
        raise ValidationError(divergence.render())
    observed = []
    for _ in range(2):
        service = case.run("object")
        rejected = sum(service.rejected.values())
        if service.offered != service.admitted + rejected:
            raise ValidationError(
                f"admission conservation broke: offered {service.offered} "
                f"!= admitted {service.admitted} + rejected {rejected}"
            )
        if service.admitted != service.completed:
            raise ValidationError(
                f"drain left work behind: admitted {service.admitted} "
                f"!= completed {service.completed}"
            )
        observed.append(observe(service))
    if observed[0] != observed[1]:
        raise ValidationError(
            "stream service is nondeterministic: object-core re-run "
            "produced different observables"
        )
    forward, reverse = MetricsRegistry(), MetricsRegistry()
    snapshots = [run["metrics"] for run in observed]
    for snap in snapshots:
        forward.merge(snap)
    for snap in reversed(snapshots):
        reverse.merge(snap)
    if forward.snapshot() != reverse.snapshot():
        raise ValidationError(
            "stream telemetry merge is order-dependent: forward != "
            "reverse fold of the per-run snapshots"
        )


def _make_policy(name: str):
    from repro.cache.replacement import PromotionPolicy, policy_by_name

    if name.startswith("promotion:"):
        return PromotionPolicy(miss_policy=name.split(":", 1)[1])
    return policy_by_name(name)


def _run_cache_case(case: CacheCase) -> None:
    from repro.cache.bankset import BankSetState

    policy = _make_policy(case.policy)
    state = BankSetState(list(case.bank_of_way))
    checker = BlockConservationChecker(
        shadow_lru=policy.name in ("lru", "fast_lru")
    )
    for tag, is_write in case.accesses:
        before = state.resident_tags()
        outcome = policy.access(state, tag, bool(is_write))
        checker.check(tag, before, state, outcome, key=case.bank_of_way)


def _run_faults_case(case: FaultsCase) -> None:
    from repro.faults import DegradedRouting, FaultPlan, verify_degraded
    from repro.noc.routing import routing_for

    topology = build_topology(case.kind, case.cols, case.rows)
    dead = FaultPlan.sample(
        topology, link_rate=case.link_rate, seed=case.fault_seed
    ).dead_channels()
    routing = DegradedRouting(topology, routing_for(topology), dead)
    verify_degraded(topology, routing)
    # Inject only toward destinations a degraded route still reaches.
    packets = []
    for spec in case.packets:
        reachable = tuple(
            d for d in spec.destinations if routing.can_route(spec.source, d)
        )
        if reachable:
            packets.append(replace(spec, destinations=reachable))
    network = _run_checked(topology, packets, routing)
    crossed = sorted(str(link) for link in network._link_flits if link in dead)
    if crossed:
        raise ValidationError(
            f"flits crossed {len(crossed)} dead channel(s): {crossed[:4]}"
        )


def _run_oracle_case(case: OracleCase) -> None:
    from repro.validation.differential import run_oracle

    report = run_oracle(
        design=case.design,
        scheme=case.scheme,
        benchmark=case.benchmark,
        measure=case.measure,
        seed=case.seed,
        sample=case.sample,
    )
    if not report.ok:
        raise ValidationError(
            "differential oracle diverged:\n  " + "\n  ".join(report.divergences)
        )


def run_case(case) -> None:
    """Execute one fuzz case; raises on any invariant violation."""
    if isinstance(case, NocCase):
        _run_noc_case(case)
    elif isinstance(case, CacheCase):
        _run_cache_case(case)
    elif isinstance(case, OracleCase):
        _run_oracle_case(case)
    elif isinstance(case, FaultsCase):
        _run_faults_case(case)
    elif isinstance(case, FlitWorkload):
        divergence = compare(case)
        if divergence is not None:
            raise ValidationError(divergence.render())
    elif isinstance(case, StreamWorkload):
        _run_stream_case(case)
    else:
        raise ValidationError(f"not a fuzz case: {case!r}")


# -- shrinking ----------------------------------------------------------------


def shrink_list(items: list, still_fails) -> list:
    """Greedy delta debugging: drop chunks, then singles, while failing."""
    items = list(items)
    chunk = max(1, len(items) // 2)
    while chunk >= 1:
        i = 0
        while i < len(items):
            candidate = items[:i] + items[i + chunk:]
            if candidate and still_fails(candidate):
                items = candidate
            else:
                i += chunk
        chunk //= 2
    return items


def _fails(case) -> bool:
    try:
        run_case(case)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        raise
    except Exception:
        return True
    return False


def shrink_case(case):
    """Smallest still-failing variant of a known-failing *case*."""
    if isinstance(case, NocCase):
        packets = shrink_list(
            list(case.packets),
            lambda kept: _fails(replace(case, packets=tuple(kept))),
        )
        case = replace(case, packets=tuple(packets))
        shrunk_packets = []
        for i, packet in enumerate(case.packets):
            if len(packet.destinations) > 1:
                others = list(case.packets)

                def fails_with(dsts, i=i, others=others, packet=packet):
                    others[i] = replace(packet, destinations=tuple(dsts))
                    return _fails(replace(case, packets=tuple(others)))

                kept = shrink_list(list(packet.destinations), fails_with)
                packet = replace(packet, destinations=tuple(kept))
            shrunk_packets.append(packet)
        candidate = replace(case, packets=tuple(shrunk_packets))
        return candidate if _fails(candidate) else case
    if isinstance(case, CacheCase):
        accesses = shrink_list(
            list(case.accesses),
            lambda kept: _fails(replace(case, accesses=tuple(kept))),
        )
        return replace(case, accesses=tuple(accesses))
    if isinstance(case, OracleCase):
        for measure in (30, 60, 90, 120, 180):
            if measure >= case.measure:
                break
            candidate = replace(case, measure=measure)
            if _fails(candidate):
                return candidate
        return case
    if isinstance(case, (FlitWorkload, FaultsCase)):
        packets = shrink_list(
            list(case.packets),
            lambda kept: _fails(replace(case, packets=tuple(kept))),
        )
        return replace(case, packets=tuple(packets))
    if isinstance(case, StreamWorkload):
        tenants = shrink_list(
            list(case.tenants),
            lambda kept: _fails(replace(case, tenants=tuple(kept))),
        )
        case = replace(case, tenants=tuple(tenants))
        for cycles in (100, 200, 400, 800):
            if cycles >= case.cycles:
                break
            candidate = replace(case, cycles=cycles)
            if _fails(candidate):
                return candidate
        return case
    return case


# -- reporting ----------------------------------------------------------------


_CASE_IMPORTS = {
    NocCase: "NocCase, PacketSpec",
    CacheCase: "CacheCase",
    OracleCase: "OracleCase",
    FaultsCase: "FaultsCase, PacketSpec",
    FlitWorkload: "FlitWorkload, PacketSpec",
    StreamWorkload: "StreamWorkload, TenantSpec",
}


def case_to_pytest(case, error: str = "") -> str:
    """A standalone pytest module body reproducing *case*."""
    names = _CASE_IMPORTS[type(case)]
    lines = [f"from repro.validation.fuzzer import {names}, run_case", "", ""]
    lines.append("def test_fuzz_repro():")
    if error:
        lines.append(f"    # fails with: {error}")
    lines.append(f"    case = {case!r}")
    lines.append("    run_case(case)")
    return "\n".join(lines) + "\n"


@dataclass
class FuzzFailure:
    """One failing fuzz case, shrunk and rendered as a pytest repro."""

    index: int
    family: str
    case: object
    error_type: str
    error: str
    shrunk: object = None
    repro: str = ""

    def render(self) -> str:
        lines = [
            f"case #{self.index} ({self.family}): {self.error_type}: {self.error}",
            f"  original: {self.case!r}",
            f"  shrunk:   {self.shrunk!r}",
            "  repro (paste into tests/validation/):",
        ]
        lines += ["    " + line for line in self.repro.splitlines()]
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz` campaign."""

    cases_run: int
    seed: int
    families: tuple
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        verdict = "all passed" if self.ok else f"{len(self.failures)} FAILED"
        return (
            f"fuzz: {self.cases_run} cases (seed {self.seed}, families "
            f"{'/'.join(sorted(set(self.families)))}): {verdict}"
        )

    def render(self) -> str:
        lines = [self.summary_line()]
        for failure in self.failures:
            lines.append(failure.render())
        return "\n".join(lines)


def fuzz(
    n: int,
    seed: int = 1,
    families: tuple = DEFAULT_FAMILIES,
) -> FuzzReport:
    """Run *n* seeded fuzz cases; shrink and report every failure.

    Case *i* draws from ``families[i % len(families)]`` with its own
    deterministic RNG, so any single failing index reproduces in
    isolation regardless of what ran before it.
    """
    report = FuzzReport(cases_run=n, seed=seed, families=tuple(families))
    for i in range(n):
        family = families[i % len(families)]
        rng = random.Random(f"{seed}/{i}/{family}")
        case = generate_case(family, rng)
        try:
            run_case(case)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            raise
        except Exception as exc:
            shrunk = shrink_case(case)
            error = f"{exc}"
            report.failures.append(
                FuzzFailure(
                    index=i,
                    family=family,
                    case=case,
                    error_type=type(exc).__name__,
                    error=error,
                    shrunk=shrunk,
                    repro=case_to_pytest(shrunk, error=error.splitlines()[0]),
                )
            )
    return report
