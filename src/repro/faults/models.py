"""Seeded, deterministic fault plans for the transaction-level model.

The fault taxonomy (DESIGN.md §11) covers three classes:

* **permanent link failure** (:class:`LinkFault`) -- a directed channel
  is dead for the whole run; degraded routing detours around it;
* **transient faults** (:class:`TransientFaults`) -- each link traversal
  independently loses its message with a seeded probability, and the
  sender retries;
* **dead banks** (:class:`BankFault`) -- a bank node neither sources nor
  sinks packets; its column keeps only the banks in front of it.

A :class:`FaultPlan` bundles faults; :meth:`FaultPlan.sample` draws one
deterministically from a seed while protecting the nodes the cache cannot
lose (core/memory attach points and the row-0 / position-0 banks), so a
sampled plan degrades capacity and latency but never strands an access.
:class:`repro.faults.recovery.DegradedCacheGeometry` times a cache over
the surviving fabric of a plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.noc.topology import (
    HUB,
    HaloTopology,
    MeshTopology,
    NodeId,
    Topology,
)


@dataclass(frozen=True)
class LinkFault:
    """Permanent failure of the directed channel ``src -> dst``."""

    src: NodeId
    dst: NodeId


@dataclass(frozen=True)
class BankFault:
    """A dead bank node: its column keeps only the banks in front of it."""

    node: NodeId


@dataclass(frozen=True)
class TransientFaults:
    """Per-traversal message-loss rate (seeded at the degraded geometry)."""

    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ConfigurationError(
                f"transient fault rate {self.drop_rate} outside [0, 1]"
            )


def protected_nodes(topology: Topology) -> frozenset:
    """Nodes a sampled plan may never cut off: the core/memory attach
    points plus every row-0 (mesh) or hub-adjacent position-0 (halo)
    node, so each bank column keeps its entry point and every access can
    still complete (possibly with degraded capacity). On full meshes the
    memory attaches at the *bottom* row, so its whole column is protected
    too -- degraded U-routes reach it only through that column."""
    protected = set()
    if topology.core_attach is not None:
        protected.add(topology.core_attach)
    if topology.memory_attach is not None:
        protected.add(topology.memory_attach)
    if isinstance(topology, HaloTopology):
        protected.add(HUB)
        for s in range(topology.num_spikes):
            protected.add(("spike", s, 0))
    elif isinstance(topology, MeshTopology):
        for x in range(topology.cols):
            protected.add((x, 0))
        if topology.memory_attach is not None:
            mx, my = topology.memory_attach
            if my != 0:
                for y in range(topology.rows):
                    protected.add((mx, y))
    return frozenset(protected)


@dataclass(frozen=True)
class FaultPlan:
    """A declared, reproducible set of faults for one run."""

    links: tuple = ()
    banks: tuple = ()
    transients: TransientFaults | None = None

    def dead_channels(self) -> frozenset:
        """Directed channels dead under this plan."""
        return frozenset((f.src, f.dst) for f in self.links)

    def dead_banks(self) -> frozenset:
        return frozenset(f.node for f in self.banks)

    def describe(self) -> str:
        parts = []
        if self.links:
            parts.append(f"{len(self.links)} link fault(s)")
        if self.banks:
            parts.append(f"{len(self.banks)} dead bank(s)")
        if self.transients is not None and self.transients.drop_rate > 0:
            parts.append(
                f"transient rate {self.transients.drop_rate:g}/traversal"
            )
        return ", ".join(parts) if parts else "no faults"

    @staticmethod
    def sample(
        topology: Topology,
        *,
        link_rate: float = 0.0,
        bank_rate: float = 0.0,
        transient_rate: float = 0.0,
        seed: int = 0,
    ) -> "FaultPlan":
        """Draw a deterministic plan: each candidate link/bank fails
        independently with its rate, under the protection constraints.

        Both directions of a physical link fail together (a severed wire
        bundle). Bank faults spare the protected nodes and never kill
        every bank of the topology.
        """
        rng = random.Random(f"faults/{seed}")
        protected = protected_nodes(topology)

        links = []
        seen = set()
        for channel in sorted(topology.channels(), key=lambda c: str((c.src, c.dst))):
            pair = frozenset((channel.src, channel.dst))
            if pair in seen:
                continue
            seen.add(pair)
            if channel.src in protected or channel.dst in protected:
                # Links touching protected nodes stay up so every bank
                # column keeps its entry point and memory stays reachable.
                continue
            if rng.random() < link_rate:
                links.append(LinkFault(channel.src, channel.dst))
                links.append(LinkFault(channel.dst, channel.src))

        banks = []
        if bank_rate > 0.0:
            for node in sorted(topology.nodes, key=str):
                if node in protected:
                    continue
                if rng.random() < bank_rate:
                    banks.append(BankFault(node))

        transients = (
            TransientFaults(drop_rate=transient_rate)
            if transient_rate > 0.0
            else None
        )
        return FaultPlan(
            links=tuple(links),
            banks=tuple(banks),
            transients=transients,
        )
