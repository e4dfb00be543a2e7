"""Post-run energy accounting.

The transaction simulator already counts exactly the events the energy
model needs: every bank `Resource` grant is one bank access, every cycle
a channel `Resource` is busy is one flit-hop (a flit through the
downstream router plus the link span), and the memory model counts fills
and write-backs. The meter folds those counters into an energy report,
plus leakage over the run's cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.area.floorplan import FloorPlanner
from repro.core.system import NetworkedCacheSystem, RunResult
from repro.power.params import EnergyParams


@dataclass(frozen=True)
class EnergyReport:
    """Energy of one run, by component (picojoules)."""

    bank_pj: float
    router_pj: float
    link_pj: float
    memory_pj: float
    leakage_pj: float
    accesses: int
    cycles: int

    @property
    def dynamic_pj(self) -> float:
        return self.bank_pj + self.router_pj + self.link_pj + self.memory_pj

    @property
    def total_pj(self) -> float:
        return self.dynamic_pj + self.leakage_pj

    @property
    def pj_per_access(self) -> float:
        return self.total_pj / self.accesses if self.accesses else 0.0

    def fractions(self) -> dict[str, float]:
        total = self.total_pj
        if total == 0:
            return {k: 0.0 for k in ("bank", "router", "link", "memory", "leakage")}
        return {
            "bank": self.bank_pj / total,
            "router": self.router_pj / total,
            "link": self.link_pj / total,
            "memory": self.memory_pj / total,
            "leakage": self.leakage_pj / total,
        }


@dataclass
class EnergyMeter:
    """Meters a finished :class:`NetworkedCacheSystem` run."""

    params: EnergyParams = field(default_factory=EnergyParams)
    planner: FloorPlanner = field(default_factory=FloorPlanner)

    def measure(self, system: NetworkedCacheSystem, result: RunResult) -> EnergyReport:
        geometry = system.geometry
        topology = geometry.topology

        tile_sides: dict = {}
        capacities: dict = {}
        for column in range(geometry.num_columns):
            for descriptor in geometry.columns[column]:
                node = geometry.bank_node(column, descriptor.position)
                ports = self.planner._router_ports(topology, node)
                tile_sides[node] = self.planner.tile_side(
                    descriptor.capacity_bytes, ports
                )
                capacities[(column, descriptor.position)] = descriptor.capacity_bytes

        bank_pj = 0.0
        for key, resource in geometry._bank_resources.items():
            bank_pj += resource.grants * self.params.bank_access_pj(capacities[key])

        router_pj = 0.0
        link_pj = 0.0
        for (src, dst), resource in geometry._channel_resources.items():
            flit_hops = resource.busy_cycles
            router_pj += flit_hops * self.params.router_flit_pj
            length = max(tile_sides.get(src, 0.0), tile_sides.get(dst, 0.0))
            link_pj += flit_hops * self.params.link_flit_pj(length)

        memory_events = system.memory.reads + system.memory.writebacks
        memory_pj = memory_events * self.params.memory_access_pj

        area = self.planner.design_area(system.spec)
        leakage_pj = self.params.leakage_pj(area.l2_mm2, result.cycles)

        return EnergyReport(
            bank_pj=bank_pj,
            router_pj=router_pj,
            link_pj=link_pj,
            memory_pj=memory_pj,
            leakage_pj=leakage_pj,
            accesses=result.accesses,
            cycles=result.cycles,
        )
