"""Long-lived streaming driver: open-loop arrivals on the flit fabric.

Couples the arrival schedules of :mod:`repro.stream.arrivals` to the
flit-level network (either simulation core) through a bounded admission
queue at the hub issue port. Unlike the closed-batch protocol driver
(:mod:`repro.noc.protocol`), the clock here is *open-loop*: arrivals
land on their own schedule whether or not the fabric has kept up, and a
request's SLO latency counts from its **arrival** cycle -- queueing
delay, admission throttling, and fabric congestion all show up in the
rolling p50/p95/p99.

Admission control (DESIGN.md §15):

* ``drop-tail`` -- reject when the admission queue holds
  ``queue_limit`` requests (reason ``queue_full``);
* ``token-bucket`` -- additionally meter admissions against a bucket of
  ``token_burst`` tokens refilled at ``token_rate`` tokens/cycle
  (reason ``throttled``), shedding load *before* the queue fills.

Each admitted request becomes one protocol transaction: a 1-flit
``READ_REQUEST`` from the hub to its content's bank; hits answer with a
5-flit ``HIT_DATA`` after the bank's tag latency, misses send a 1-flit
``MISS_NOTIFY`` to the hub, which triggers the memory leg
(``MEMORY_REQUEST`` / ``MEMORY_FILL`` packets on mesh designs; a timed
off-network completion over the hub's pin delay on halo designs, whose
hub *is* the memory attach point). At most ``max_outstanding``
transactions are in flight, so the issue port exerts backpressure on
the admission queue and the queue on the arrival stream.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.config import memory_access_latency
from repro.core.designs import design_spec
from repro.errors import ConfigurationError, SimulationError
from repro.noc.network import Delivery, NetworkStats, make_network
from repro.noc.packet import MessageType, Packet
from repro.noc.topology import NodeId
from repro.stream.arrivals import Request
from repro.telemetry.registry import (
    LATENCY_SLO_EDGES,
    MetricsRegistry,
    Series,
    quantiles_from_counts,
)

#: Recognized admission-control policies.
ADMISSION_POLICIES = ("drop-tail", "token-bucket")

#: Rejection reasons (counter name suffixes, stable across policies).
REJECT_REASONS = ("queue_full", "throttled")


def make_stream_series(window: int) -> dict[str, Series]:
    """The aggregate windowed series every streaming run records.

    Shared by the service and the report path so the names, windows, and
    (for the SLO histogram) edges cannot drift. Per-tenant series reuse
    the same shapes under ``stream.series.tenant.<name>.*``.
    """
    return {
        "stream.series.offered": Series(window),
        "stream.series.admitted": Series(window),
        "stream.series.rejected": Series(window),
        "stream.series.completed": Series(window),
        "stream.series.queue_depth": Series(window, "max"),
        "stream.series.latency": Series(window, "hist", LATENCY_SLO_EDGES),
    }


class StreamService:
    """Open-loop streaming front-end over one Table-3 design."""

    def __init__(
        self,
        design: str,
        *,
        core: str | None = None,
        window: int = 64,
        policy: str = "drop-tail",
        queue_limit: int = 32,
        max_outstanding: int = 8,
        token_rate: float = 0.12,
        token_burst: float = 8.0,
    ) -> None:
        if policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"unknown admission policy {policy!r}; "
                f"known: {ADMISSION_POLICIES}"
            )
        if window < 1:
            raise ConfigurationError("window must be a positive cycle count")
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be positive")
        if max_outstanding < 1:
            raise ConfigurationError("max_outstanding must be positive")
        if token_rate <= 0 or token_burst < 1:
            raise ConfigurationError("bad token-bucket parameters")
        self.geometry = design_spec(design).build()
        self.network = make_network(
            self.geometry.topology, core=core, window=window
        )
        self.window = window
        self.policy = policy
        self.queue_limit = queue_limit
        self.max_outstanding = max_outstanding
        self.token_rate = token_rate
        self.token_burst = token_burst
        self.hub: NodeId = self.geometry.core_node
        self.memory: NodeId = self.geometry.memory_node

        self._queue: deque[Request] = deque()
        self._outstanding = 0
        self._tokens = float(token_burst)
        #: packet_id -> ("request"|"hit_data"|"miss_notify"|"mem_request"
        #: |"fill", transaction seq)
        self._roles: dict[int, tuple[str, int]] = {}
        #: transaction seq -> (request, bank depth)
        self._inflight: dict[int, tuple[Request, int]] = {}
        self._seq = 0
        #: Halo memory completions: (ready_cycle, seq) min-heap.
        self._memory_heap: list[tuple[int, int]] = []

        self.offered = 0
        self.admitted = 0
        self.completed = 0
        self.rejected = {reason: 0 for reason in REJECT_REASONS}
        self.queue_high_water = 0
        self._tenants: dict[str, dict[str, int]] = {}
        self._series = make_stream_series(window)
        self.network.on_delivery(self._on_delivery)

    # -- telemetry helpers --------------------------------------------------

    def _tenant(self, name: str) -> dict[str, int]:
        stats = self._tenants.get(name)
        if stats is None:
            stats = self._tenants[name] = {
                "offered": 0, "admitted": 0, "rejected": 0, "completed": 0,
            }
            prefix = f"stream.series.tenant.{name}"
            self._series[f"{prefix}.offered"] = Series(self.window)
            self._series[f"{prefix}.rejected"] = Series(self.window)
            self._series[f"{prefix}.completed"] = Series(self.window)
            self._series[f"{prefix}.latency"] = Series(
                self.window, "hist", LATENCY_SLO_EDGES
            )
        return stats

    # -- admission ----------------------------------------------------------

    def _admit(self, request: Request, cycle: int) -> None:
        stats = self._tenant(request.tenant)
        self.offered += 1
        stats["offered"] += 1
        self._series["stream.series.offered"].record(cycle)
        self._series[f"stream.series.tenant.{request.tenant}.offered"].record(
            cycle
        )
        reason = None
        if len(self._queue) >= self.queue_limit:
            reason = "queue_full"
        elif self.policy == "token-bucket" and self._tokens < 1.0:
            reason = "throttled"
        if reason is not None:
            self.rejected[reason] += 1
            stats["rejected"] += 1
            self._series["stream.series.rejected"].record(cycle)
            self._series[
                f"stream.series.tenant.{request.tenant}.rejected"
            ].record(cycle)
            return
        if self.policy == "token-bucket":
            self._tokens -= 1.0
        self.admitted += 1
        stats["admitted"] += 1
        self._series["stream.series.admitted"].record(cycle)
        self._queue.append(request)
        if len(self._queue) > self.queue_high_water:
            self.queue_high_water = len(self._queue)

    # -- issue / protocol legs ----------------------------------------------

    def _depth(self, request: Request) -> int:
        rows = self.geometry.banks_per_column(request.column)
        if not request.hit:
            # Misses are decided at the LRU (deepest) bank, mirroring the
            # Fast-LRU column-combined miss report.
            return rows - 1
        return min(rows - 1, int(request.depth_unit * rows))

    def _issue_ready(self, cycle: int) -> None:
        while self._queue and self._outstanding < self.max_outstanding:
            request = self._queue.popleft()
            self._outstanding += 1
            seq = self._seq
            self._seq += 1
            depth = self._depth(request)
            self._inflight[seq] = (request, depth)
            packet = Packet(
                MessageType.READ_REQUEST,
                source=self.hub,
                destinations=(self.geometry.nodes[request.column][depth],),
            )
            self._roles[packet.packet_id] = ("request", seq)
            self.network.inject(packet)

    def _on_delivery(self, delivery: Delivery) -> None:
        role = self._roles.pop(delivery.packet.packet_id, None)
        if role is None:
            return
        kind, seq = role
        request, depth = self._inflight[seq]
        geometry = self.geometry
        if kind == "request":
            timing = geometry.bank(request.column, depth).timing
            done = delivery.delivered_at + timing.tag_latency
            bank = geometry.nodes[request.column][depth]
            if request.hit:
                response = Packet(
                    MessageType.HIT_DATA,
                    source=bank,
                    destinations=(self.hub,),
                )
                self._roles[response.packet_id] = ("hit_data", seq)
            else:
                response = Packet(
                    MessageType.MISS_NOTIFY,
                    source=bank,
                    destinations=(self.hub,),
                )
                self._roles[response.packet_id] = ("miss_notify", seq)
            self.network.schedule_injection(response, done)
        elif kind == "miss_notify":
            if geometry.is_halo:
                # Halo designs attach core and memory at the same hub
                # router, so the memory leg cannot be a hub->hub packet;
                # it is a timed completion over the spike-free pin path.
                ready = (
                    delivery.delivered_at
                    + memory_access_latency()
                    + 2 * geometry.memory_pin_delay
                )
                heapq.heappush(self._memory_heap, (ready, seq))
            else:
                packet = Packet(
                    MessageType.MEMORY_REQUEST,
                    source=self.hub,
                    destinations=(self.memory,),
                )
                self._roles[packet.packet_id] = ("mem_request", seq)
                self.network.schedule_injection(packet, delivery.delivered_at)
        elif kind == "mem_request":
            fill = Packet(
                MessageType.MEMORY_FILL,
                source=self.memory,
                destinations=(self.hub,),
            )
            self._roles[fill.packet_id] = ("fill", seq)
            self.network.schedule_injection(
                fill, delivery.delivered_at + memory_access_latency()
            )
        else:  # "hit_data" or "fill": data is back at the hub
            self._complete(seq, delivery.delivered_at)

    def _complete(self, seq: int, at_cycle: int) -> None:
        request, _ = self._inflight.pop(seq)
        self._outstanding -= 1
        latency = at_cycle - request.cycle
        stats = self._tenant(request.tenant)
        self.completed += 1
        stats["completed"] += 1
        self._series["stream.series.completed"].record(at_cycle)
        self._series["stream.series.latency"].record(at_cycle, latency)
        prefix = f"stream.series.tenant.{request.tenant}"
        self._series[f"{prefix}.completed"].record(at_cycle)
        self._series[f"{prefix}.latency"].record(at_cycle, latency)

    def _drain_memory_heap(self, cycle: int) -> None:
        while self._memory_heap and self._memory_heap[0][0] <= cycle:
            ready, seq = heapq.heappop(self._memory_heap)
            self._complete(seq, ready)

    # -- main loop ----------------------------------------------------------

    def _tick(self, cycle: int, arrivals: bool) -> None:
        if arrivals:
            self._tokens = min(
                self.token_burst, self._tokens + self.token_rate
            )
        self._drain_memory_heap(cycle)
        self._issue_ready(cycle)
        self._series["stream.series.queue_depth"].record(
            cycle, len(self._queue)
        )
        self.network.step()

    def run(
        self,
        requests: list[Request],
        cycles: int,
        *,
        drain: bool = True,
        max_drain_cycles: int = 200_000,
    ) -> None:
        """Serve *requests* over ``cycles`` open-loop cycles.

        With ``drain=True`` the service then stops admitting and runs the
        fabric until every in-flight transaction completes, so
        conservation (offered == admitted + rejected, admitted ==
        completed) holds exactly at return.
        """
        if cycles < 1:
            raise ConfigurationError("cycles must be positive")
        index = 0
        total = len(requests)
        while self.network.cycle < cycles:
            cycle = self.network.cycle
            while index < total and requests[index].cycle <= cycle:
                self._admit(requests[index], cycle)
                index += 1
            self._tick(cycle, arrivals=True)
        while index < total:
            # Arrivals stamped in the final cycle land after the budget;
            # account them as offered-and-rejected (service closed).
            self._admit(requests[index], cycles - 1)
            index += 1
        if not drain:
            return
        deadline = self.network.cycle + max_drain_cycles
        while (
            self._queue
            or self._outstanding
            or self._memory_heap
            or self.network.pending_work()
        ):
            if self.network.cycle >= deadline:
                raise SimulationError(
                    f"stream did not drain within {max_drain_cycles} "
                    f"cycles; {self._outstanding} outstanding, "
                    f"{len(self._queue)} queued\n"
                    + self.network.drain_diagnostic()
                )
            self._tick(self.network.cycle, arrivals=False)

    # -- reporting ----------------------------------------------------------

    @property
    def stats(self) -> NetworkStats:
        """The fabric's traffic statistics, so the service reads like a
        network to :func:`repro.validation.differential.observe`."""
        return self.network.stats

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Publish stream counters + windowed SLO series, then the NoC's."""
        registry.counter("stream.offered").inc(self.offered)
        registry.counter("stream.admitted").inc(self.admitted)
        registry.counter("stream.completed").inc(self.completed)
        for reason in REJECT_REASONS:
            registry.counter(f"stream.rejected.{reason}").inc(
                self.rejected[reason]
            )
        registry.gauge("stream.queue.high_water").update_max(
            self.queue_high_water
        )
        for name in sorted(self._tenants):
            stats = self._tenants[name]
            for key in sorted(stats):
                registry.counter(f"stream.tenant.{name}.{key}").inc(
                    stats[key]
                )
        for name in sorted(self._series):
            local = self._series[name]
            registry.series(name, local.window, local.agg, local.edges).merge(
                local.snapshot()
            )
        self.network.publish_metrics(registry)

    def summary(self) -> dict:
        """Run-level SLO summary (totals, quantiles, goodput, availability).

        Values are pure functions of the run, so cached experiment-engine
        replays reproduce them bit-for-bit.
        """
        latency = self._series["stream.series.latency"]
        assert latency.edges is not None
        merged = [0] * (len(latency.edges) + 1)
        for counts in latency.windows.values():
            for i, count in enumerate(counts):
                merged[i] += count
        cycles = max(1, self.network.cycle)
        rejected = sum(self.rejected.values())
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected.copy(),
            "completed": self.completed,
            "queue_high_water": self.queue_high_water,
            "quantiles": quantiles_from_counts(latency.edges, merged),
            "goodput_per_kcycle": round(self.completed * 1000 / cycles, 3),
            "availability": (
                round(self.admitted / self.offered, 6) if self.offered else 1.0
            ),
            "rejection_rate": (
                round(rejected / self.offered, 6) if self.offered else 0.0
            ),
            "tenants": {
                name: dict(sorted(stats.items()))
                for name, stats in sorted(self._tenants.items())
            },
        }
