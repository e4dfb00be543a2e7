"""The six evaluated network designs (Table 3).

=======  ==================================  =====================
Design   Interconnection network             Bank size
=======  ==================================  =====================
A        16 x 16 mesh                        uniform (64 KB)
B        16 x 16 simplified mesh             uniform (64 KB)
C        16 x 4 simplified mesh              uniform (256 KB)
D        16 x 5 simplified mesh              non-uniform
E        16-spike halo (spike length 16)     uniform (64 KB)
F        16-spike halo (spike length 5)      non-uniform
=======  ==================================  =====================

All designs implement the same 16 MB, 16-way, 16-bank-set-group cache; they
differ in topology, bank granularity, and wire delays. Designs E/F place
the memory controller at the hub, paying 16 / 9 extra wire cycles to the
off-chip pins (Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cache.bank import NON_UNIFORM_COLUMN, bank_descriptors_for_column
from repro.core.geometry import CacheGeometry
from repro.errors import ConfigurationError
from repro.noc.topology import (
    HaloTopology,
    MeshTopology,
    SimplifiedMeshTopology,
    Topology,
)

NUM_COLUMNS = 16
KB = 1024


@dataclass(frozen=True)
class DesignSpec:
    """Static description of one Table-3 design."""

    key: str
    label: str
    network: str
    bank_capacities: tuple[int, ...]
    topology_factory: Callable[[], Topology] = field(compare=False)

    @property
    def banks_per_column(self) -> int:
        return len(self.bank_capacities)

    @property
    def total_capacity(self) -> int:
        return NUM_COLUMNS * sum(self.bank_capacities)

    @property
    def uniform(self) -> bool:
        return len(set(self.bank_capacities)) == 1

    def build(self) -> CacheGeometry:
        """Materialize the pristine geometry (topology + bank descriptors).

        The experiment runner builds the geometries of the ablations,
        sensitivity sweeps and fault campaigns itself (router,
        spike-queue, wire-scale and fault overrides).
        """
        columns = [
            bank_descriptors_for_column(list(self.bank_capacities))
            for _ in range(NUM_COLUMNS)
        ]
        return CacheGeometry(self.topology_factory(), columns)


def _mesh_a() -> Topology:
    # Wire delays derive from the 64 KB bank's Table-1 entry (1 cycle).
    return MeshTopology(
        NUM_COLUMNS,
        16,
        core_column=8,
        memory_column=8,
        row_bank_capacities=[64 * KB] * 16,
    )


def _mesh_b() -> Topology:
    return SimplifiedMeshTopology(
        NUM_COLUMNS,
        16,
        core_column=8,
        memory_column=9,
        row_bank_capacities=[64 * KB] * 16,
    )


def _mesh_c() -> Topology:
    return SimplifiedMeshTopology(
        NUM_COLUMNS,
        4,
        core_column=8,
        memory_column=9,
        row_bank_capacities=[256 * KB] * 4,
    )


def _mesh_d() -> Topology:
    # Horizontal delay pinned to the 512 KB bank's 3 cycles (Section 6.2).
    return SimplifiedMeshTopology(
        NUM_COLUMNS,
        5,
        core_column=8,
        memory_column=9,
        row_bank_capacities=list(NON_UNIFORM_COLUMN),
        horizontal_wire_delay=3,
    )


def _halo_e() -> Topology:
    return HaloTopology(
        NUM_COLUMNS,
        16,
        position_bank_capacities=[64 * KB] * 16,
        memory_pin_delay=16,
    )


def _halo_f() -> Topology:
    return HaloTopology(
        NUM_COLUMNS,
        5,
        position_bank_capacities=list(NON_UNIFORM_COLUMN),
        memory_pin_delay=9,
    )


design_a = DesignSpec(
    key="A",
    label="16x16 mesh (64KB bank)",
    network="16x16 mesh",
    bank_capacities=(64 * KB,) * 16,
    topology_factory=_mesh_a,
)

design_b = DesignSpec(
    key="B",
    label="16x16 simpl. mesh (64KB bank)",
    network="16x16 simplified mesh",
    bank_capacities=(64 * KB,) * 16,
    topology_factory=_mesh_b,
)

design_c = DesignSpec(
    key="C",
    label="16x4 simpl. mesh (256KB bank)",
    network="16x4 simplified mesh",
    bank_capacities=(256 * KB,) * 4,
    topology_factory=_mesh_c,
)

design_d = DesignSpec(
    key="D",
    label="16x5 simpl. mesh (non-uniform bank)",
    network="16x5 simplified mesh",
    bank_capacities=NON_UNIFORM_COLUMN,
    topology_factory=_mesh_d,
)

design_e = DesignSpec(
    key="E",
    label="16-spike halo (64KB bank)",
    network="16-spike halo (length 16)",
    bank_capacities=(64 * KB,) * 16,
    topology_factory=_halo_e,
)

design_f = DesignSpec(
    key="F",
    label="5-spike halo (non-uniform bank)",
    network="16-spike halo (length 5)",
    bank_capacities=NON_UNIFORM_COLUMN,
    topology_factory=_halo_f,
)

_DESIGNS = {spec.key: spec for spec in
            (design_a, design_b, design_c, design_d, design_e, design_f)}

DESIGN_NAMES = tuple(_DESIGNS)


def design_spec(key: str) -> DesignSpec:
    """Look up a Table-3 design by its letter."""
    try:
        return _DESIGNS[key.upper()]
    except KeyError:
        raise ConfigurationError(
            f"unknown design {key!r}; known: {', '.join(DESIGN_NAMES)}"
        ) from None


def make_design(key: str) -> CacheGeometry:
    """Build the geometry of design *key* ('A'..'F')."""
    return design_spec(key).build()
