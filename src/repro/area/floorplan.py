"""Per-design floorplans: Table 4 and the Fig.-10 halo layout.

A tile is a bank plus its router; its side is ``sqrt(bank + router
area)``. A link between adjacent tiles is 256 wires at 1 um pitch
(0.256 mm wide -- one 128-bit flit each direction) and spans the larger of
the two tiles it connects. Wires are not routed over banks, so link area
is real estate (Section 6.3).

Mesh chips are the L2 rectangle itself. Halo chips are the minimal square
around the 4 mm x 4 mm core with spikes radiating outward, which is why
Design E wastes most of its die (uniform 64 KB tiles leave the outer ring
empty) while Design F's growing banks tile the quadrants compactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

from repro.area.cacti import BankAreaModel
from repro.area.router_area import RouterAreaModel
from repro.core.designs import DesignSpec
from repro.errors import ConfigurationError
from repro.noc.topology import HaloTopology, Topology

#: Bidirectional link width: 2 x 128 wires at 1 um pitch (Section 6.3).
LINK_WIDTH_MM = 0.256
#: The core die placed at the halo hub (Section 6.3).
CORE_SIDE_MM = 4.0


@dataclass(frozen=True)
class DesignArea:
    """One Table-4 row."""

    design: str
    bank_mm2: float
    router_mm2: float
    link_mm2: float
    chip_mm2: float

    @property
    def l2_mm2(self) -> float:
        return self.bank_mm2 + self.router_mm2 + self.link_mm2

    @property
    def bank_fraction(self) -> float:
        return self.bank_mm2 / self.l2_mm2

    @property
    def router_fraction(self) -> float:
        return self.router_mm2 / self.l2_mm2

    @property
    def link_fraction(self) -> float:
        return self.link_mm2 / self.l2_mm2

    @property
    def network_fraction(self) -> float:
        """Router + link share of the L2 area (52 % for Design A)."""
        return self.router_fraction + self.link_fraction

    def as_row(self) -> dict:
        """Formatted like Table 4."""
        return {
            "design": self.design,
            "bank %": round(100 * self.bank_fraction, 1),
            "router %": round(100 * self.router_fraction, 1),
            "link %": round(100 * self.link_fraction, 1),
            "L2 area (mm2)": round(self.l2_mm2, 2),
            "chip area (mm2)": round(self.chip_mm2, 2),
        }


@dataclass
class FloorPlanner:
    """Computes Table-4 areas for any Table-3 design."""

    bank_model: BankAreaModel = field(default_factory=BankAreaModel)
    router_model: RouterAreaModel = field(default_factory=RouterAreaModel)
    link_width_mm: float = LINK_WIDTH_MM
    core_side_mm: float = CORE_SIDE_MM

    def tile_side(self, capacity_bytes: int, router_ports: int) -> float:
        """Side of the square tile holding a bank and its router."""
        area = self.bank_model.area_mm2(capacity_bytes) + self.router_model.router_area(
            router_ports
        )
        return sqrt(area)

    @staticmethod
    def _router_ports(topology: Topology, node) -> int:
        """Distinct physical neighbors plus the local inject/eject port."""
        neighbors = set(topology.successors(node)) | set(topology.predecessors(node))
        return len(neighbors) + 1

    def design_area(self, spec: DesignSpec) -> DesignArea:
        """Full Table-4 style area accounting for one design."""
        topology = spec.topology_factory()
        geometry = spec.build()

        bank_mm2 = 0.0
        tile_sides: dict = {}
        for column in range(geometry.num_columns):
            for descriptor in geometry.columns[column]:
                node = geometry.bank_node(column, descriptor.position)
                ports = self._router_ports(topology, node)
                bank_mm2 += self.bank_model.area_mm2(descriptor.capacity_bytes)
                tile_sides[node] = self.tile_side(descriptor.capacity_bytes, ports)

        router_mm2 = 0.0
        for node in topology.nodes:
            if node not in tile_sides:
                continue  # the halo hub is part of the cache controller
            router_mm2 += self.router_model.router_area(
                self._router_ports(topology, node)
            )

        link_mm2 = 0.0
        seen = set()
        for channel in topology.channels():
            key = tuple(sorted((channel.src, channel.dst), key=str))
            if key in seen:
                continue
            seen.add(key)
            length = max(
                tile_sides.get(channel.src, 0.0), tile_sides.get(channel.dst, 0.0)
            )
            link_mm2 += self.link_width_mm * length

        l2_mm2 = bank_mm2 + router_mm2 + link_mm2
        if isinstance(topology, HaloTopology):
            chip_mm2 = self._halo_chip_area(spec)
        else:
            chip_mm2 = l2_mm2
        return DesignArea(
            design=spec.key,
            bank_mm2=bank_mm2,
            router_mm2=router_mm2,
            link_mm2=link_mm2,
            chip_mm2=max(chip_mm2, l2_mm2),
        )

    # -- halo geometry ---------------------------------------------------------

    def spike_tile_sides(self, spec: DesignSpec) -> list[float]:
        """Tile sides along one spike, MRU outward (3-port spike routers)."""
        return [
            self.tile_side(capacity, 3) for capacity in spec.bank_capacities
        ]

    def spike_extent(self, spec: DesignSpec) -> float:
        """Radial length of one spike in mm."""
        return sum(self.spike_tile_sides(spec))

    def _halo_chip_area(self, spec: DesignSpec) -> float:
        """Minimal square die: core in the center, spikes radiating out."""
        side = 2.0 * self.spike_extent(spec) + self.core_side_mm
        return side * side


@dataclass(frozen=True)
class SpikeSegment:
    """One bank tile along a halo spike (for Fig.-10 rendering)."""

    position: int
    capacity_bytes: int
    side_mm: float
    start_mm: float

    @property
    def end_mm(self) -> float:
        return self.start_mm + self.side_mm


def halo_layout(spec: DesignSpec, planner: FloorPlanner | None = None) -> dict:
    """Geometry of the Fig.-10 halo floorplan.

    Returns the die side, core side, and per-spike segments (identical for
    all spikes, radial coordinates measured from the core edge).
    """
    if not isinstance(spec.topology_factory(), HaloTopology):
        raise ConfigurationError(f"design {spec.key} is not a halo design")
    planner = planner or FloorPlanner()
    sides = planner.spike_tile_sides(spec)
    segments = []
    offset = 0.0
    for position, (capacity, side) in enumerate(zip(spec.bank_capacities, sides)):
        segments.append(
            SpikeSegment(
                position=position,
                capacity_bytes=capacity,
                side_mm=side,
                start_mm=offset,
            )
        )
        offset += side
    die_side = 2.0 * offset + planner.core_side_mm
    return {
        "design": spec.key,
        "die_side_mm": die_side,
        "core_side_mm": planner.core_side_mm,
        "num_spikes": 16,
        "spike_extent_mm": offset,
        "segments": segments,
    }
