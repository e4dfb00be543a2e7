"""Open-loop multi-tenant request generation (DESIGN.md §15).

Every closed-batch workload in :mod:`repro.workloads` replays a fixed
trace; the streaming service instead draws *arrivals on their own clock*:
each tenant owns an independent request process (stationary Poisson,
on/off-modulated bursty, or slowly-modulated diurnal), a Zipf content
popularity over its private catalog, and a private slice of the address
space mapped onto the cache's bank-set columns. The simulator must keep
up with the offered load or visibly degrade -- admission control and SLO
telemetry live in :mod:`repro.stream.service`.

Determinism
-----------
Arrival generation is a pure function of ``(tenants, cycles, seed)``:

* every tenant draws from its **own** ``random.Random`` seeded by
  ``(seed, tenant name)`` -- string seeding is process-stable, and the
  per-tenant streams are disjoint by construction, so adding or removing
  a tenant never perturbs another tenant's arrivals (property-tested);
* time-varying rates (bursty, diurnal) are sampled by Lewis thinning
  against the process's peak rate, so one uniform draw per candidate
  decides acceptance and the schedule never depends on float summation
  order;
* the merged schedule is sorted by ``(cycle, tenant, sequence)``.

Content is classified at generation time: a request's column, hit/miss
verdict, and stack depth are functions of its Zipf rank only, so the
flit-level service replays the identical network schedule on every
simulation core (the cross-core bit-equality the fuzzer's ``stream``
family asserts).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, fields

from repro.errors import ConfigurationError

#: Recognized arrival processes.
ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")

#: Columns (bank sets) the tenant address spaces scatter over.
NUM_COLUMNS = 16

#: Odd multiplier => bijective scatter modulo a power of two (the same
#: constant the trace generator uses).
_SCATTER = 0x9E3779B1


@dataclass(frozen=True, slots=True)
class TenantSpec:
    """One tenant's request process and content popularity.

    ``rate_per_kcycle`` is the mean offered load in requests per 1000
    sim-cycles; bursty tenants modulate it with exponential on/off
    periods (``burst_boost`` x during ON, floor x otherwise), diurnal
    tenants with a sinusoid of ``diurnal_period`` cycles.
    """

    name: str
    rate_per_kcycle: float
    process: str = "poisson"
    zipf_alpha: float = 0.9
    catalog_blocks: int = 512
    #: Leading Zipf-rank fraction of the catalog that is cache-resident;
    #: requests beyond it are global misses that go to memory.
    resident_fraction: float = 0.5
    #: Bursty process: mean cycles of one ON+OFF modulation period, the
    #: fraction of it spent ON, and the ON-rate multiplier.
    burst_period: int = 512
    burst_on_fraction: float = 0.25
    burst_boost: float = 4.0
    #: Diurnal process: sinusoid period (cycles) and relative amplitude.
    diurnal_period: int = 4096
    diurnal_amplitude: float = 0.8

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant needs a name")
        if self.process not in ARRIVAL_PROCESSES:
            raise ConfigurationError(
                f"unknown arrival process {self.process!r}; "
                f"known: {ARRIVAL_PROCESSES}"
            )
        if self.rate_per_kcycle <= 0:
            raise ConfigurationError("rate_per_kcycle must be positive")
        if self.catalog_blocks < 1:
            raise ConfigurationError("catalog_blocks must be positive")
        if not 0.0 < self.resident_fraction <= 1.0:
            raise ConfigurationError("resident_fraction must be in (0, 1]")
        if self.zipf_alpha < 0:
            raise ConfigurationError("zipf_alpha must be non-negative")
        if self.burst_period < 2 or not 0.0 < self.burst_on_fraction < 1.0:
            raise ConfigurationError("bad burst modulation parameters")
        if self.burst_boost < 1.0:
            raise ConfigurationError("burst_boost must be >= 1")
        if self.diurnal_period < 2 or not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError("bad diurnal modulation parameters")

    def scaled(self, load: float) -> "TenantSpec":
        """Same tenant at ``load`` x the offered rate."""
        if load <= 0:
            raise ConfigurationError("load factor must be positive")
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["rate_per_kcycle"] = self.rate_per_kcycle * load
        return TenantSpec(**values)


@dataclass(frozen=True, slots=True)
class Request:
    """One open-loop request, fully classified at generation time."""

    cycle: int
    tenant: str
    #: Bank-set column the content block maps to.
    column: int
    #: True when the block is cache-resident (served by a bank), False
    #: when it is a global miss that must go to memory.
    hit: bool
    #: Stack position of a hit in [0, 1): 0.0 = MRU-adjacent, ~1.0 = LRU
    #: -- hot Zipf ranks sit near the MRU bank, exactly the locality the
    #: Fast-LRU stack maintains. The service maps it onto its bank rows.
    depth_unit: float


def _tenant_rng(seed: int, tenant: str, stream: str) -> random.Random:
    """A process-stable RNG private to one (seed, tenant, stream)."""
    return random.Random(f"stream/{seed}/{tenant}/{stream}")


def _zipf_cumulative(catalog: int, alpha: float) -> list[float]:
    """Cumulative Zipf weights over ranks ``1..catalog``."""
    total = 0.0
    out: list[float] = []
    for rank in range(1, catalog + 1):
        total += rank ** -alpha
        out.append(total)
    return out


def _burst_windows(
    tenant: TenantSpec, cycles: int, rng: random.Random
) -> list[tuple[float, float]]:
    """Exponentially-distributed ON windows covering ``[0, cycles)``."""
    mean_on = tenant.burst_period * tenant.burst_on_fraction
    mean_off = tenant.burst_period * (1.0 - tenant.burst_on_fraction)
    windows: list[tuple[float, float]] = []
    t = rng.expovariate(1.0 / mean_off)
    while t < cycles:
        on = rng.expovariate(1.0 / mean_on)
        windows.append((t, t + on))
        t += on + rng.expovariate(1.0 / mean_off)
    return windows


def _peak_rate(tenant: TenantSpec) -> float:
    """The thinning envelope: the process's maximum instantaneous rate."""
    base = tenant.rate_per_kcycle / 1000.0
    if tenant.process == "bursty":
        return base * tenant.burst_boost
    if tenant.process == "diurnal":
        return base * (1.0 + tenant.diurnal_amplitude)
    return base


def _rate_at(
    tenant: TenantSpec, t: float, windows: list[tuple[float, float]]
) -> float:
    """Instantaneous arrival rate of *tenant* at cycle *t*."""
    base = tenant.rate_per_kcycle / 1000.0
    if tenant.process == "bursty":
        i = bisect.bisect_right(windows, (t, math.inf)) - 1
        if i >= 0 and windows[i][0] <= t < windows[i][1]:
            return base * tenant.burst_boost
        # OFF floor keeps the process open (never fully silent).
        return base * 0.25
    if tenant.process == "diurnal":
        phase = 2.0 * math.pi * t / tenant.diurnal_period
        return base * (1.0 + tenant.diurnal_amplitude * math.sin(phase))
    return base


def _space_offset(tenant: TenantSpec) -> int:
    """The tenant's address-space offset, a function of its name only."""
    return random.Random(f"stream/space/{tenant.name}").getrandbits(16)


def _classify(
    tenant: TenantSpec, rank: int, offset: int
) -> tuple[int, bool, float]:
    """Map a Zipf rank (1-based) to (column, hit, depth_unit).

    The column scatter is a bijective multiplicative hash shifted by the
    tenant's :func:`_space_offset`, so tenants occupy disjoint address
    slices and rank never correlates with column. Residency follows rank:
    the hot head of the catalog hits (shallow for the hottest ranks), the
    cold tail misses.
    """
    scattered = ((rank + offset) * _SCATTER) & 0xFFFFFFFF
    column = (scattered >> 4) % NUM_COLUMNS
    resident = max(1, int(tenant.catalog_blocks * tenant.resident_fraction))
    hit = rank <= resident
    depth_unit = (rank - 1) / resident if hit else 1.0
    return column, hit, min(depth_unit, 0.999999)


def generate_tenant_arrivals(
    tenant: TenantSpec, cycles: int, seed: int
) -> list[Request]:
    """Deterministic arrival schedule of one tenant over ``[0, cycles)``."""
    if cycles < 1:
        raise ConfigurationError("cycles must be positive")
    arrivals_rng = _tenant_rng(seed, tenant.name, "arrivals")
    content_rng = _tenant_rng(seed, tenant.name, "content")
    windows = (
        _burst_windows(
            tenant, cycles, _tenant_rng(seed, tenant.name, "burst")
        )
        if tenant.process == "bursty"
        else []
    )
    cumulative = _zipf_cumulative(tenant.catalog_blocks, tenant.zipf_alpha)
    total_weight = cumulative[-1]
    peak = _peak_rate(tenant)
    offset = _space_offset(tenant)
    out: list[Request] = []
    t = 0.0
    while True:
        t += arrivals_rng.expovariate(peak)
        if t >= cycles:
            break
        # Lewis thinning: accept a candidate with probability rate/peak.
        if arrivals_rng.random() * peak > _rate_at(tenant, t, windows):
            continue
        rank = 1 + bisect.bisect_left(
            cumulative, content_rng.random() * total_weight
        )
        rank = min(rank, tenant.catalog_blocks)
        column, hit, depth_unit = _classify(tenant, rank, offset)
        out.append(
            Request(
                cycle=int(t),
                tenant=tenant.name,
                column=column,
                hit=hit,
                depth_unit=depth_unit,
            )
        )
    return out


def generate_arrivals(
    tenants: tuple[TenantSpec, ...] | list[TenantSpec],
    cycles: int,
    seed: int,
) -> list[Request]:
    """Merged multi-tenant schedule, sorted by (cycle, tenant, order).

    Per-tenant sub-streams are generated independently (disjoint RNGs),
    so each tenant's slice of the merged schedule is identical to its
    solo schedule -- the disjointness property the hypothesis suite pins.
    """
    if not tenants:
        raise ConfigurationError("need at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate tenant names: {sorted(names)}")
    merged: list[tuple[tuple[int, str, int], Request]] = []
    for tenant in sorted(tenants, key=lambda t: t.name):
        for order, request in enumerate(
            generate_tenant_arrivals(tenant, cycles, seed)
        ):
            merged.append(((request.cycle, tenant.name, order), request))
    merged.sort(key=lambda pair: pair[0])
    return [request for _, request in merged]


# -- named tenant mixes -------------------------------------------------------

#: Named multi-tenant mixes (the ``benchmark`` coordinate of a
#: :class:`~repro.stream.engine.StreamSpec`). Rates are calibrated so a
#: ``load=1.0`` run is comfortably below saturation on every design and
#: ``load >= 2.5`` pushes the hub admission queue into visible overload.
TENANT_MIXES: dict[str, tuple[TenantSpec, ...]] = {
    "solo-poisson": (
        TenantSpec("steady", rate_per_kcycle=45.0, process="poisson"),
    ),
    "duo-bursty": (
        TenantSpec(
            "media", rate_per_kcycle=55.0, process="bursty",
            zipf_alpha=1.1, catalog_blocks=384, burst_boost=5.0,
            burst_period=600, burst_on_fraction=0.2,
        ),
        TenantSpec(
            "search", rate_per_kcycle=30.0, process="poisson",
            zipf_alpha=0.8, catalog_blocks=768, resident_fraction=0.35,
        ),
    ),
    "trio-mixed": (
        TenantSpec(
            "api", rate_per_kcycle=35.0, process="poisson",
            zipf_alpha=1.0, catalog_blocks=512,
        ),
        TenantSpec(
            "batch", rate_per_kcycle=25.0, process="bursty",
            zipf_alpha=0.7, catalog_blocks=1024, resident_fraction=0.3,
            burst_boost=6.0, burst_period=900, burst_on_fraction=0.15,
        ),
        TenantSpec(
            "edge", rate_per_kcycle=20.0, process="diurnal",
            zipf_alpha=1.2, catalog_blocks=256, diurnal_period=2048,
        ),
    ),
}

MIX_NAMES = tuple(TENANT_MIXES)


def tenant_mix(name: str, load: float = 1.0) -> tuple[TenantSpec, ...]:
    """A named tenant mix, optionally scaled to ``load`` x its rates."""
    try:
        mix = TENANT_MIXES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown tenant mix {name!r}; known: {', '.join(MIX_NAMES)}"
        ) from None
    if load == 1.0:
        return mix
    return tuple(tenant.scaled(load) for tenant in mix)
