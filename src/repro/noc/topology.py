"""Network topologies: mesh, simplified mesh, and halo (Section 4).

Conventions
-----------
Mesh nodes are ``(x, y)`` with ``x`` the column (0..cols-1, left to right)
and ``y`` the row (0..rows-1, **top to bottom**). The core attaches to the
top row (y = 0); in the baseline mesh the memory attaches to the bottom row.
``Y+`` therefore points *away* from the core, down a bank column — exactly
the direction data requests travel.

Halo nodes are ``("hub",)`` for the core-side hub and ``("spike", s, i)``
for position ``i`` (0 = MRU, closest to the hub) on spike ``s``.

Every channel is unidirectional and carries a wire delay in cycles (Table 1
ties wire delay to the bank size of the traversed tile).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import BankTiming
from repro.errors import TopologyError

NodeId = tuple

HUB: NodeId = ("hub",)


def spike_node(spike: int, position: int) -> NodeId:
    """Node id of position *position* (0 = MRU) on halo spike *spike*."""
    return ("spike", spike, position)


@dataclass(frozen=True)
class Channel:
    """A unidirectional link between two routers."""

    src: NodeId
    dst: NodeId
    wire_delay: int = 1
    #: 'horizontal' | 'vertical' | 'spike' | 'hub'
    orientation: str = "vertical"

    def __post_init__(self) -> None:
        if self.wire_delay < 0:
            raise TopologyError("wire_delay must be non-negative")
        if self.src == self.dst:
            raise TopologyError("self-loop channels are not allowed")


class Topology:
    """A directed graph of routers with per-channel wire delays."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: set[NodeId] = set()
        #: ``nodes`` in canonical order, built on first read after a change.
        self._ordered: tuple[NodeId, ...] | None = None
        self._channels: dict[tuple[NodeId, NodeId], Channel] = {}
        self._out: dict[NodeId, list[NodeId]] = {}
        self._in: dict[NodeId, list[NodeId]] = {}
        #: Router the core's injection/ejection port attaches to.
        self.core_attach: NodeId | None = None
        #: Router the memory controller attaches to.
        self.memory_attach: NodeId | None = None
        #: Extra wire cycles between the memory controller and the off-chip
        #: pins (relevant for halo designs where the controller sits in the
        #: center of the die: 16 cycles uniform / 9 cycles non-uniform).
        self.memory_pin_delay: int = 0

    # -- construction -----------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        self._nodes.add(node)
        self._ordered = None
        self._out.setdefault(node, [])
        self._in.setdefault(node, [])

    def add_channel(
        self,
        src: NodeId,
        dst: NodeId,
        wire_delay: int = 1,
        orientation: str = "vertical",
    ) -> Channel:
        """Add one unidirectional channel; both endpoints must exist."""
        if src not in self._nodes or dst not in self._nodes:
            raise TopologyError(f"channel endpoints must be nodes: {src}->{dst}")
        if (src, dst) in self._channels:
            raise TopologyError(f"duplicate channel {src}->{dst}")
        channel = Channel(src, dst, wire_delay, orientation)
        self._channels[(src, dst)] = channel
        self._out[src].append(dst)
        self._in[dst].append(src)
        return channel

    def add_bidirectional(
        self,
        a: NodeId,
        b: NodeId,
        wire_delay: int = 1,
        orientation: str = "vertical",
    ) -> None:
        self.add_channel(a, b, wire_delay, orientation)
        self.add_channel(b, a, wire_delay, orientation)

    def scale_wire_delays(self, factor: int) -> None:
        """Multiply the wire delay of every channel by *factor* (>= 1).

        Models slower global wires (a later technology node) or longer
        ones (Section 4's spiral spikes, which 'incur the longer wire
        delay'). Timing reads channels only, so this covers delays the
        constructor pinned as well as the Table-1 ones.
        """
        if factor < 1:
            raise TopologyError(f"wire delay factor must be >= 1, got {factor}")
        self._channels = {
            key: replace(channel, wire_delay=channel.wire_delay * factor)
            for key, channel in self._channels.items()
        }

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """Every router, sorted by ``str``: one order in every process.

        Both flit cores build their router tables in this order and the
        switch phase commits one router at a time, so a hash-ordered set
        here would make results depend on ``PYTHONHASHSEED`` (halo node
        ids hold strings, whose hashes are salted per process).
        """
        if self._ordered is None:
            self._ordered = tuple(sorted(self._nodes, key=str))
        return self._ordered

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def channels(self) -> tuple[Channel, ...]:
        return tuple(self._channels.values())

    @property
    def num_links(self) -> int:
        """Number of physical links; a bidirectional pair counts as one."""
        seen = set()
        links = 0
        for src, dst in self._channels:
            if (dst, src) in seen:
                continue
            seen.add((src, dst))
            links += 1
        return links

    def has_channel(self, src: NodeId, dst: NodeId) -> bool:
        return (src, dst) in self._channels

    def channel(self, src: NodeId, dst: NodeId) -> Channel:
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise TopologyError(f"no channel {src}->{dst} in {self.name}") from None

    def successors(self, node: NodeId) -> tuple[NodeId, ...]:
        return tuple(self._out.get(node, ()))

    def predecessors(self, node: NodeId) -> tuple[NodeId, ...]:
        return tuple(self._in.get(node, ()))


class MeshTopology(Topology):
    """A full 2D mesh (Design A fabric).

    ``row_bank_capacities`` optionally gives the bank capacity of each row so
    wire delays follow Table 1 (Design D non-uniform meshes); otherwise all
    channels use ``uniform_wire_delay``.
    """

    def __init__(
        self,
        cols: int,
        rows: int,
        core_column: int | None = None,
        memory_column: int | None = None,
        uniform_wire_delay: int = 1,
        row_bank_capacities: list[int] | None = None,
        horizontal_wire_delay: int | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name or f"mesh-{cols}x{rows}")
        if cols < 1 or rows < 1:
            raise TopologyError("mesh needs at least one column and one row")
        if row_bank_capacities is not None and len(row_bank_capacities) != rows:
            raise TopologyError("row_bank_capacities must have one entry per row")
        self.cols = cols
        self.rows = rows
        self.row_bank_capacities = row_bank_capacities
        row_delays = self._compute_vertical_delays(
            rows, uniform_wire_delay, row_bank_capacities
        )
        if row_bank_capacities is None:
            horizontal_delays = row_delays
        else:
            if horizontal_wire_delay is None:
                horizontal_wire_delay = max(row_delays, default=uniform_wire_delay)
            horizontal_delays = [horizontal_wire_delay] * rows

        for x in range(cols):
            for y in range(rows):
                self.add_node((x, y))
        # The delays live on the channels alone, where scale_wire_delays
        # can reach them.
        self._build_links(row_delays, horizontal_delays)

        core_column = cols // 2 if core_column is None else core_column
        memory_column = cols // 2 if memory_column is None else memory_column
        if not 0 <= core_column < cols or not 0 <= memory_column < cols:
            raise TopologyError("core/memory columns out of range")
        #: Core attaches at the center of the top row, memory at the center
        #: of the bottom row (Section 5), "to evenly distribute traffic".
        self.core_attach = (core_column, 0)
        self.memory_attach = (memory_column, rows - 1)

    @staticmethod
    def _compute_vertical_delays(
        rows: int,
        uniform_wire_delay: int,
        row_bank_capacities: list[int] | None,
    ) -> list[int]:
        """Per-row wire delay: crossing the tile of row ``y`` costs the
        Table-1 wire delay of that row's bank size."""
        if row_bank_capacities is None:
            return [uniform_wire_delay] * rows
        return [
            BankTiming.for_capacity(capacity).wire_delay
            for capacity in row_bank_capacities
        ]

    def _build_links(
        self, row_delays: list[int], horizontal_delays: list[int]
    ) -> None:
        """Wire every tile to its neighbours.

        A vertical hop between rows ``y`` and ``y + 1`` costs
        ``row_delays[y + 1]``: the delay of the farther-from-core row,
        whose tile the wire spans. A horizontal hop in row ``y`` costs
        ``horizontal_delays[y]``.
        """
        for x in range(self.cols):
            for y in range(self.rows):
                if x + 1 < self.cols:
                    self.add_bidirectional(
                        (x, y),
                        (x + 1, y),
                        wire_delay=horizontal_delays[y],
                        orientation="horizontal",
                    )
                if y + 1 < self.rows:
                    self.add_bidirectional(
                        (x, y),
                        (x, y + 1),
                        wire_delay=row_delays[y + 1],
                        orientation="vertical",
                    )

    # -- Section 4 link-count formulas (paper's analytical claims) --------

    @staticmethod
    def paper_total_links(n: int) -> int:
        """Total link count of an n x n mesh as stated in Section 4."""
        return 4 * (n - 1) ** 2

    @staticmethod
    def paper_removable_links(n: int) -> int:
        """Horizontal links removable by the Fig. 4(b) minimization."""
        return (n - 2) ** 2

    @staticmethod
    def paper_underutilized_links(n: int) -> int:
        """Footnote-2 count of remaining underutilized links."""
        return n * (n - 2) + 2 * (n - 1)


class SimplifiedMeshTopology(MeshTopology):
    """The simplified mesh of Designs B, C, D (Fig. 6(b)).

    All vertical links are kept (bidirectional). Horizontal links survive
    only in the first row (where requests fan out from the core and replies
    converge back). The memory controller moves next to the core on the top
    row, so no bank-to-memory traffic ever needs a mid-mesh horizontal hop;
    with XYX routing the fabric stays fully connected for the cache's
    communication patterns.
    """

    def __init__(
        self,
        cols: int,
        rows: int,
        core_column: int | None = None,
        memory_column: int | None = None,
        uniform_wire_delay: int = 1,
        row_bank_capacities: list[int] | None = None,
        horizontal_wire_delay: int | None = None,
        name: str | None = None,
    ) -> None:
        core_column = cols // 2 if core_column is None else core_column
        if memory_column is None:
            # Memory controller placed next to the core (Design B).
            memory_column = core_column + 1 if core_column + 1 < cols else core_column - 1
        super().__init__(
            cols,
            rows,
            core_column=core_column,
            memory_column=memory_column,
            uniform_wire_delay=uniform_wire_delay,
            row_bank_capacities=row_bank_capacities,
            horizontal_wire_delay=horizontal_wire_delay,
            name=name or f"simplified-mesh-{cols}x{rows}",
        )
        self.memory_attach = (memory_column, 0)

    def _build_links(
        self, row_delays: list[int], horizontal_delays: list[int]
    ) -> None:
        """As the full mesh, keeping only row 0's horizontal links."""
        for x in range(self.cols):
            for y in range(self.rows):
                if x + 1 < self.cols and y == 0:
                    self.add_bidirectional(
                        (x, y),
                        (x + 1, y),
                        wire_delay=horizontal_delays[y],
                        orientation="horizontal",
                    )
                if y + 1 < self.rows:
                    self.add_bidirectional(
                        (x, y),
                        (x, y + 1),
                        wire_delay=row_delays[y + 1],
                        orientation="vertical",
                    )


class HaloTopology(Topology):
    """The halo network (Designs E and F, Fig. 6(c)/(d)).

    The core is a hub from which ``num_spikes`` linear spikes branch; spike
    position 0 holds the MRU bank so every MRU bank is exactly one hop from
    the core. ``position_bank_capacities`` gives the bank size at each spike
    position (identical across spikes), which sets the per-hop wire delays
    via Table 1. The memory controller sits at the hub with
    ``memory_pin_delay`` extra cycles of wire to the off-chip pins.
    """

    def __init__(
        self,
        num_spikes: int,
        spike_length: int,
        position_bank_capacities: list[int] | None = None,
        memory_pin_delay: int = 0,
        name: str | None = None,
    ) -> None:
        super().__init__(name or f"halo-{num_spikes}x{spike_length}")
        if num_spikes < 1 or spike_length < 1:
            raise TopologyError("halo needs >=1 spike of length >=1")
        if (
            position_bank_capacities is not None
            and len(position_bank_capacities) != spike_length
        ):
            raise TopologyError(
                "position_bank_capacities must have one entry per spike position"
            )
        self.num_spikes = num_spikes
        self.spike_length = spike_length
        self.position_bank_capacities = position_bank_capacities
        if position_bank_capacities is None:
            position_delays = [1] * spike_length
        else:
            position_delays = [
                BankTiming.for_capacity(capacity).wire_delay
                for capacity in position_bank_capacities
            ]

        self.add_node(HUB)
        for s in range(num_spikes):
            for i in range(spike_length):
                self.add_node(spike_node(s, i))
            self.add_bidirectional(
                HUB,
                spike_node(s, 0),
                wire_delay=position_delays[0],
                orientation="hub",
            )
            for i in range(spike_length - 1):
                self.add_bidirectional(
                    spike_node(s, i),
                    spike_node(s, i + 1),
                    wire_delay=position_delays[i + 1],
                    orientation="spike",
                )

        self.core_attach = HUB
        self.memory_attach = HUB
        self.memory_pin_delay = memory_pin_delay
