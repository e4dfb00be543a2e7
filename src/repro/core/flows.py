"""Transaction flows of the networked cache (Figures 2 and 3).

Each access is executed as a composition of resource reservations over the
design's :class:`~repro.core.geometry.CacheGeometry`:

* **unicast search** walks the column bank by bank (Fig. 2); with Fast-LRU
  the evicted block rides along with the request as the wormhole body, so
  the next bank's tag match is gated by the head flit while the block
  follows (tag match overlaps replacement, Fig. 2(b));
* **multicast search** delivers the request to all banks of the column via
  the chain-replicating router and every bank tag-matches concurrently
  (Fig. 3);
* **replacement chains** move blocks between adjacent banks (LRU shifts,
  Promotion swaps, Fast-LRU's pipelined eviction chain);
* **miss handling** goes through the off-chip memory model, fills the MRU
  bank, and cut-through-forwards the block to the core.

Consistency rule: while an access's block movements are in flight, the bank
set's tags are unstable, so a subsequent access to the *same set* stalls
until the earlier one settles. This per-set serialization is precisely the
cost of LRU's long chains that Fast-LRU overlaps away.

Each access returns one plain :data:`Transaction` tuple: its data-return
and completion times, and the bank and memory cycles of the Figure-7
decomposition. :class:`AccessTiming` is the same record as an object, built
only where something reads it as one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from repro.cache.bankset import AccessOutcome
from repro.cache.memory import MemoryModel
from repro.cache.replacement import ReplacementPolicy
from repro.config import packet_flits
from repro.core.geometry import CacheGeometry
from repro.errors import ProtocolError
from repro.telemetry import trace as _trace
from repro.telemetry.registry import (
    CHAIN_DEPTH_EDGES,
    SPAN_CYCLE_EDGES,
    MetricsRegistry,
)

CONTROL = packet_flits(carries_block=False)
DATA = packet_flits(carries_block=True)

#: Latency-breakdown legs every transaction decomposes into
#: (DESIGN.md §14): admission wait, wormhole serialization, uncontended
#: router+wire hops, channel-grant queueing, bank service, and memory.
SPAN_LEGS = (
    "injection_queueing",
    "serialization",
    "hop_traversal",
    "network_queueing",
    "bank_service",
    "memory",
)


@dataclass(frozen=True, slots=True)
class Scheme:
    """One of the five evaluated scheme combinations."""

    multicast: bool
    policy: ReplacementPolicy

    @property
    def name(self) -> str:
        prefix = "multicast" if self.multicast else "unicast"
        return f"{prefix}+{self.policy.name}"

    @property
    def is_fast(self) -> bool:
        return self.policy.overlaps_replacement


#: What executing one access returns: ``(data_at_core, completion,
#: settled, bank_cycles, memory_cycles, hit_bank)``, with *hit_bank* the
#: bank position that hit, None on a miss (:class:`AccessTiming` names
#: each field).
Transaction = tuple[int, int, int, int, int, int | None]

#: What a flow helper returns: ``(data_at_core, completion, settled,
#: memory_cycles, hit_bank)``. The engine adds the bank cycles it counted.
_Flow = tuple[int, int, int, int, int | None]


def _settle_by(flow: _Flow, done: int) -> _Flow:
    """*flow* with its completion and settling no earlier than *done*."""
    data_at_core, completion, settled, memory_cycles, hit_bank = flow
    return (
        data_at_core, max(completion, done), max(settled, done),
        memory_cycles, hit_bank,
    )


@dataclass(slots=True)
class AccessTiming:
    """Timing of one access, with the Fig.-7 latency decomposition."""

    issued: int
    data_at_core: int
    completion: int
    hit: bool
    bank_position: int | None
    bank_cycles: int = 0
    memory_cycles: int = 0
    #: When the bank set's tags are stable again (all in-column block
    #: movement finished). A subsequent access to the *same set* cannot
    #: start earlier -- this is the serialization long LRU chains impose
    #: and Fast-LRU largely removes.
    settled: int = 0

    @property
    def latency(self) -> int:
        """Cycles from issue until the data (or write ack) reaches the core."""
        return self.data_at_core - self.issued

    @property
    def transaction_latency(self) -> int:
        """Cycles until the whole cache transaction completes, including
        replacement chains and the completion notification -- the latency
        Figure 8 plots (Fig. 2 counts its 21 vs 12 hops this way)."""
        return self.completion - self.issued

    @property
    def network_cycles(self) -> int:
        """Transaction cycles not spent in banks or memory: wires,
        routers, serialization, and queueing."""
        return max(0, self.transaction_latency - self.bank_cycles - self.memory_cycles)

    @classmethod
    def of(cls, issued: int, transaction: Transaction) -> AccessTiming:
        """The timing of *transaction*, an access issued at *issued*."""
        data_at_core, completion, settled, bank, memory, hit_bank = transaction
        return cls(
            issued, data_at_core, completion, hit_bank is not None, hit_bank,
            bank, memory, settled,
        )


class TransactionEngine:
    """Executes accesses against a geometry under one scheme."""

    def __init__(
        self,
        geometry: CacheGeometry,
        memory: MemoryModel,
        scheme: Scheme,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.geometry = geometry
        self.memory = memory
        self.scheme = scheme
        #: Scheme and geometry facts every access reads, read once here.
        self._multicast = scheme.multicast
        self._fast = scheme.is_fast
        self._policy = scheme.policy.name
        #: What a Promotion fill displaces (footnote 4): the recursive
        #: demotion chain, one bank (``one_copy``) or none (``zero_copy``).
        self._miss_policy = getattr(scheme.policy, "miss_policy", "recursive")
        self._faulty = getattr(geometry, "fault_stats", None) is not None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Per-access replacement-chain length in banks (Fast-LRU's whole
        #: point is keeping this off the critical path; the histogram shows
        #: it actually pipelining). The object survives registry resets.
        self._chain_depths = self.metrics.histogram(
            "cache.bankset.eviction_chain_depth", CHAIN_DEPTH_EDGES
        )
        #: Always-on per-leg latency-breakdown histograms in SPAN_LEGS
        #: order (fixed edges, so they merge across cells). Like
        #: _chain_depths, the objects survive registry resets.
        self._span_hists = [
            self.metrics.histogram(f"cache.span.{leg}", SPAN_CYCLE_EDGES)
            for leg in SPAN_LEGS
        ]
        #: The span legs of the accesses not yet folded into _span_hists:
        #: each distinct tuple of six legs (SPAN_LEGS order) -> how many
        #: accesses had it (:meth:`fold_spans`).
        self._spans: dict[tuple[int, ...], int] = {}
        self._sink = _trace.NULL_SINK
        #: Per-column transaction slots: the cache controller admits one
        #: transaction per bank-set column at a time on meshes; on halos
        #: the slots are the spike's issue queue
        #: (``geometry.column_slots`` entries, 2 in the paper). Each entry
        #: is the time that slot's transaction settles.
        self._column_slots: list[list[int]] = [
            [0] * geometry.column_slots for _ in range(geometry.num_columns)
        ]
        #: Cycles between admission and the request leaving the core: a
        #: halo request spends one in its spike's issue queue.
        self._admission_cycles = 1 if geometry.is_halo else 0
        self._spine_bank_cycles = 0
        #: Core node the current access belongs to (CMP support).
        self._core = geometry.core_node
        #: Transaction validators (see repro.validation.invariants): each
        #: sees ``on_transaction(column, outcome, timing)`` after every
        #: executed access. Empty in normal runs.
        self.validators: list = []

    def reset(self) -> None:
        """Forget per-column serialization state and the span legs not yet
        folded (fresh measurement window)."""
        for slots in self._column_slots:
            for i in range(len(slots)):
                slots[i] = 0
        self._spans.clear()

    def fold_spans(self) -> None:
        """Add the tallied span legs to the ``cache.span.*`` histograms,
        as one :meth:`~repro.telemetry.registry.Histogram.record` per leg
        of every access would have, and empty the tally."""
        for spans, count in self._spans.items():
            for histogram, cycles in zip(self._span_hists, spans):
                histogram.counts[bisect_left(SPAN_CYCLE_EDGES, cycles)] += count
                histogram.total += count * cycles
                histogram.count += count
        self._spans.clear()

    # -- public entry -------------------------------------------------------

    def execute(
        self,
        column: int,
        index: int,
        outcome: AccessOutcome,
        issue_time: int,
        is_write: bool = False,
        core_node=None,
    ) -> Transaction:
        """Run the full protocol flow for one (already content-resolved)
        access to set (*column*, *index*) and return its
        :data:`Transaction`.

        *core_node* overrides the requesting core's attach point (CMP
        runs; defaults to the geometry's single core). A bank set spans
        its whole column, so the flows time the column and never read
        *index*.

        The access first claims a transaction slot of its column: the
        controller keeps the bank-set tags consistent by admitting at most
        one in-flight transaction per mesh column (``column_slots`` per
        halo spike), so a transaction's full settle time -- exactly what
        Fast-LRU shortens -- gates the column's throughput.
        """
        return self._transact(column, outcome, issue_time, is_write, core_node)

    def execute_early_miss(
        self,
        column: int,
        index: int,
        outcome,
        issue_time: int,
        is_write: bool = False,
        core_node=None,
    ) -> Transaction:
        """Guaranteed-miss shortcut (partial-tag early miss detection).

        The controller already knows the access misses, so the memory
        request leaves the core immediately -- no column search. The fill
        and the recursive demotion chain still run normally.
        """
        return self._transact(
            column, outcome, issue_time, is_write, core_node, early_miss=True
        )

    def _transact(
        self,
        column: int,
        outcome: AccessOutcome,
        issue_time: int,
        is_write: bool,
        core_node,
        early_miss: bool = False,
    ) -> Transaction:
        geometry = self.geometry
        geometry.floor_clock.advance(issue_time)
        self._spine_bank_cycles = 0
        self._core = core_node if core_node is not None else geometry.core_node
        self._sink = sink = _trace.current_sink()
        slots = self._column_slots[column]
        slot = slots.index(min(slots))  # earliest free, first on ties
        start = max(issue_time, slots[slot])
        queue0 = geometry.traversal_queue_cycles
        hop0 = geometry.traversal_hop_cycles
        ser0 = geometry.serialization_cycles
        if self._faulty:
            fault_stats = geometry.fault_stats
            degraded_before = fault_stats.rerouted_traversals + fault_stats.retries
        t0 = start + self._admission_cycles
        if early_miss:
            flow = self._finish_miss(
                column,
                outcome,
                miss_decided=t0,
                miss_source_pos=None,
                is_write=is_write,
                chain_already_ran=False,
            )
        elif self._multicast:
            flow = self._multicast_access(column, outcome, t0, is_write)
        else:
            flow = self._unicast_access(column, outcome, t0, is_write)
        data_at_core, completion, settled, memory_cycles, hit_bank = flow
        # Accesses whose flow crossed a reroute or ran the transient retry
        # loop (per-access view of the per-traversal counters).
        if self._faulty and (
            fault_stats.rerouted_traversals + fault_stats.retries
        ) > degraded_before:
            self.metrics.counter("cache.txn.degraded_accesses").inc()
        bank_cycles = self._spine_bank_cycles
        if settled < data_at_core:
            settled = data_at_core
        slots[slot] = settled
        # The latency-breakdown legs, in SPAN_LEGS order, tallied per
        # distinct tuple until fold_spans adds them to their histograms.
        spans = (
            t0 - issue_time,
            geometry.serialization_cycles - ser0,
            geometry.traversal_hop_cycles - hop0,
            geometry.traversal_queue_cycles - queue0,
            bank_cycles,
            memory_cycles,
        )
        tally = self._spans
        tally[spans] = tally.get(spans, 0) + 1
        transaction = (
            data_at_core, completion, settled, bank_cycles, memory_cycles,
            hit_bank,
        )
        if sink.enabled:
            tid = f"column-{column}"
            for leg, cycles in zip(SPAN_LEGS, spans):
                sink.complete(leg, "cache.span", issue_time, cycles, tid=tid)
            args = {"data_at_core": data_at_core,
                    "settled": settled, "write": is_write}
            if early_miss:
                name = "early_miss"
            else:
                name = "miss" if hit_bank is None else "hit"
                args = {"bank": hit_bank, **args}
            sink.complete(
                name, "cache.txn", issue_time, completion - issue_time,
                tid=tid, args=args,
            )
        if self.validators:
            timing = AccessTiming.of(issue_time, transaction)
            for validator in self.validators:
                validator.on_transaction(column, outcome, timing)
        return transaction

    # -- unicast flows ----------------------------------------------------------

    def _unicast_access(
        self, column: int, outcome: AccessOutcome, t0: int, is_write: bool
    ) -> _Flow:
        geometry = self.geometry
        hit_pos = outcome.bank if outcome.hit else None
        last = len(geometry.nodes[column]) - 1 if hit_pos is None else hit_pos
        fast = self._fast

        # Sequential tag-match walk down the column (Fig. 2). With Fast-LRU
        # the evicted block rides as the wormhole body behind the request
        # head, so each next tag match is gated by the head flit only, while
        # every bank but the hit bank stays busy for the tag+replacement
        # time.
        flits = DATA if fast else CONTROL
        replace_until = (last if outcome.hit else last + 1) if fast else 0
        arrival = geometry.core_to_bank(column, 0, t0, CONTROL, core=self._core)
        rows = geometry.bank_rows[column]
        resource, tag, tag_replace = rows[0] if rows else geometry.bank_row(column, 0)
        latency = tag_replace if replace_until else tag
        done = resource.acquire(arrival, latency) + latency
        done, bank_cycles = geometry.walk(column, last, done, flits, replace_until)
        self._spine_bank_cycles += latency + bank_cycles
        tail_gap = flits - 1 if last else 0  # how far the body trails the head

        if hit_pos is not None:
            flow = self._finish_hit(column, hit_pos, done, is_write)
            if fast and hit_pos > 0:
                # The hit bank still absorbs the incoming evicted block
                # (its frame was freed by the departing hit block).
                resource, _, tag_replace = rows[hit_pos]
                absorb = resource.acquire(done + tail_gap, tag_replace) + tag_replace
                self._spine_bank_cycles += tag_replace
                return _settle_by(flow, absorb)
            return flow
        return self._finish_miss(
            column,
            outcome,
            miss_decided=done + tail_gap,
            miss_source_pos=last,
            is_write=is_write,
            chain_already_ran=fast,
            fast_chain_done=done + tail_gap,
        )

    # -- multicast flows ---------------------------------------------------------

    def _multicast_access(
        self, column: int, outcome: AccessOutcome, t0: int, is_write: bool
    ) -> _Flow:
        geometry = self.geometry
        hit_pos = outcome.bank if outcome.hit else None
        fast = self._fast

        # All banks tag-match concurrently (off the spine); the MRU bank of
        # a Fast-LRU flow additionally reads out its victim right after
        # miss detection.
        arrivals, done = geometry.multicast_column(
            column, t0, core=self._core, evict=fast and hit_pos != 0
        )
        rows = geometry.bank_rows[column]
        banks = len(rows)
        if self._sink.enabled:
            self._sink.complete(
                "multicast", "cache.txn", t0, max(done) - t0,
                tid=f"column-{column}",
                args={"banks": banks, "first_arrival": arrivals[0]},
            )

        if hit_pos is not None:
            self._spine_bank_cycles += rows[hit_pos][1]
            flow = self._finish_hit(column, hit_pos, done[hit_pos], is_write)
            if fast and hit_pos > 0:
                return _settle_by(
                    flow, self._chain(column, done[0], hit_pos, done)
                )
            return flow

        # Global miss: the core waits for all banks to report misses, then
        # invokes the memory (Fig. 3(b)/(d)). Since the multicast request
        # walks down the column, the LRU bank always reports last; we model
        # the per-bank notifications as combined in-column into one control
        # packet from the LRU bank (the others are subsumed by it and would
        # otherwise only add artificial reply-channel pressure).
        miss_decided = geometry.bank_to_core(
            column, banks - 1, max(done), CONTROL, core=self._core
        )
        fast_chain_done = None
        if fast:
            fast_chain_done = self._chain(column, done[0], banks - 1, done)
        self._spine_bank_cycles += rows[-1][1]
        return self._finish_miss(
            column,
            outcome,
            miss_decided=miss_decided,
            miss_source_pos=None,  # the core issues the memory request
            is_write=is_write,
            chain_already_ran=fast,
            fast_chain_done=fast_chain_done,
        )

    # -- shared hit/miss completion ----------------------------------------------

    def _finish_hit(
        self, column: int, hit_pos: int, hit_done: int, is_write: bool
    ) -> _Flow:
        """Return the hit block from bank *hit_pos*, which matched at
        *hit_done*, and run the policy's movement after it."""
        geometry = self.geometry
        policy = self._policy
        reply_flits = CONTROL if is_write else DATA
        nodes = geometry.nodes[column]
        rows = geometry.bank_rows[column]
        reply = geometry.route(nodes[hit_pos], self._core)

        if policy == "promotion":
            data_at_core = geometry.send(reply, hit_done, reply_flits)
            settled = hit_done
            completion = data_at_core
            if hit_pos > 0:
                # Swap with the next-closer bank: two one-hop block moves.
                up = geometry.route(nodes[hit_pos], nodes[hit_pos - 1])
                # The walk or multicast chain that found the hit built
                # this link.
                down = geometry.links[column][hit_pos - 1]
                upper, _, upper_latency = rows[hit_pos - 1]
                lower, _, lower_latency = rows[hit_pos]
                up_tail = geometry.reserve_segment(up, hit_done, DATA)
                w_up = upper.acquire(up_tail, upper_latency) + upper_latency
                down_tail = geometry.reserve_segment(down, w_up, DATA)
                settled = lower.acquire(down_tail, lower_latency) + lower_latency
                geometry.charge_traversals(
                    up_tail - hit_done + down_tail - w_up,
                    up.cost + down.cost, 2, DATA,
                )
                self._spine_bank_cycles += upper_latency + lower_latency
                notify = geometry.send(reply, settled, CONTROL)
                completion = max(completion, notify)
            return data_at_core, completion, settled, 0, hit_pos

        # LRU / Fast-LRU: the hit block is forwarded toward the core and
        # dropped off at the MRU frame on the way.
        heads: list[int] = []
        data_at_core = geometry.send(reply, hit_done, reply_flits, heads)
        settled = hit_done
        completion = data_at_core
        if hit_pos > 0:
            # The head reaches the MRU router on its way to the core, or
            # with the reply when that router is the core's; the write
            # needs the tail.
            index = reply.waypoint_index.get(nodes[0])
            mru_head = (
                heads[index] if index is not None
                else data_at_core - (reply_flits - 1)
            )
            resource, _, latency = rows[0]
            mru_write = resource.acquire(mru_head + (DATA - 1), latency) + latency
            self._spine_bank_cycles += latency
            settled = mru_write
            completion = max(completion, mru_write)
            if policy == "lru":
                # Classic LRU: sequential shift-down chain after the hit
                # block lands in the MRU bank (Fig. 2(a) moves (7)-(9)).
                settled = self._chain(column, mru_write, hit_pos)
                notify = geometry.send(reply, settled, CONTROL)
                completion = max(completion, notify)
        return data_at_core, completion, settled, 0, hit_pos

    def _finish_miss(
        self,
        column: int,
        outcome: AccessOutcome,
        miss_decided: int,
        miss_source_pos: int | None,
        is_write: bool,
        chain_already_ran: bool,
        fast_chain_done: int | None = None,
    ) -> _Flow:
        geometry = self.geometry
        banks = len(geometry.nodes[column])

        # Memory request: from the last bank (unicast) or the core (multicast).
        if miss_source_pos is None:
            mem_request = geometry.core_to_memory(
                miss_decided, CONTROL, core=self._core
            )
        else:
            mem_request = geometry.bank_to_memory(
                column, miss_source_pos, miss_decided, CONTROL
            )
        _, data_ready = self.memory.read(mem_request)
        memory_cycles = data_ready - mem_request

        # Fill the MRU bank; the MRU router cut-through-forwards the block
        # to the core as its flits stream in.
        fill_tail = geometry.memory_to_bank(column, 0, data_ready, DATA)
        fill_head = fill_tail - (DATA - 1)
        rows = geometry.bank_rows[column]
        resource, _, latency = rows[0] if rows else geometry.bank_row(column, 0)
        fill_write = resource.acquire(fill_tail, latency) + latency
        self._spine_bank_cycles += latency
        if self._sink.enabled:
            self._sink.complete(
                "memory", "cache.txn", mem_request, memory_cycles,
                tid=f"column-{column}",
            )
            self._sink.complete(
                "mru_fill", "cache.txn", fill_head, fill_write - fill_head,
                tid=f"column-{column}",
            )
        data_at_core = geometry.bank_to_core(
            column, 0, fill_head, DATA, core=self._core
        )
        settled = fill_write
        completion = max(data_at_core, fill_write)

        if chain_already_ran:
            # Fast-LRU: every bank already shifted its block during the tag
            # phase; the MRU frame was empty awaiting this fill.
            chain_done = fast_chain_done if fast_chain_done is not None else fill_write
            chain_end = banks - 1
        else:
            # The fill displaces the MRU block and the stack demotes:
            # the whole column for recursive replacement (LRU and this
            # paper's Promotion), one bank for one-copy, none for
            # zero-copy (footnote 4 variants).
            miss_policy = self._miss_policy
            if miss_policy == "zero_copy":
                chain_end = 0
            elif miss_policy == "one_copy":
                chain_end = min(1, banks - 1)
            else:
                chain_end = banks - 1
            chain_done = self._chain(column, fill_write, chain_end)
        settled = max(settled, chain_done)
        completion = max(completion, chain_done)

        # Dirty victim leaves its bank for memory (fire-and-forget: it
        # occupies channels and the memory pipe but does not extend the
        # transaction the core observes).
        if outcome.writeback_required:
            victim_bank = (
                outcome.victim_bank
                if outcome.victim_bank is not None
                else banks - 1
            )
            wb_arrival = geometry.bank_to_memory(
                column, victim_bank, chain_done, DATA
            )
            self.memory.writeback(wb_arrival)

        notify = geometry.bank_to_core(
            column, chain_end, chain_done, CONTROL, core=self._core
        )
        completion = max(completion, notify)
        return data_at_core, completion, settled, memory_cycles, None

    # -- replacement chains --------------------------------------------------------

    def _chain(
        self, column: int, start: int, last: int, done: list[int] | None = None
    ) -> int:
        """Replacement chain down the column: bank p-1's block moves to
        bank p for ``p = 1..last``, each link departing at *start* or when
        the previous bank's write finished. Each bank's write is gated by
        the head flit of the incoming block (cut-through: the tail streams
        into the frame while the next link's victim already departs).

        Without *done* this is the sequential demotion chain (classic LRU
        shifts, recursive replacement after a fill). With *done*, each
        bank's multicast tag-match completion, it is Fast-LRU's eviction
        chain (Fig. 3): bank 0's victim leaves as soon as bank 0 detects
        its miss, each later bank writes once it has both missed and
        received its predecessor's block, and bank *last* (the hit bank's
        freed frame, or the LRU bank on a global miss) absorbs the chain.
        """
        self._chain_depths.record(last)
        if last <= 0:
            return start
        current, bank_cycles = self.geometry.walk(
            column, last, start, DATA, last + 1, done
        )
        self._spine_bank_cycles += bank_cycles
        # The last block's tail must fully land before the set settles.
        current += DATA - 1
        if self._sink.enabled:
            self._sink.complete(
                "chain" if done is None else "fast_chain", "cache.txn", start,
                current - start, tid=f"column-{column}", args={"links": last},
            )
        return current

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TransactionEngine(scheme={self.scheme.name})"


def make_scheme(name: str) -> Scheme:
    """Build a scheme from names like ``multicast+fast_lru``.

    Accepts common spelling variants case-insensitively: ``fastlru`` and
    ``fast-lru`` both mean ``fast_lru``, and the cast half may be
    abbreviated ``uc``/``mc``. :data:`STATIC_NUCA` names the S-NUCA
    baseline: LRU contents timed by :class:`StaticNUCAEngine`.
    """
    from repro.cache.replacement import LRUPolicy, policy_by_name, policy_names

    if name.strip().lower() == STATIC_NUCA:
        return _HomeBankScheme(multicast=False, policy=LRUPolicy())
    cast, sep, policy_name = name.strip().lower().partition("+")
    if not sep or not cast or not policy_name:
        raise ProtocolError(
            f"scheme name {name!r} must be '<cast>+<policy>', e.g. "
            f"'unicast+lru' or 'multicast+fast_lru' (casts: unicast, "
            f"multicast; policies: {', '.join(policy_names())})"
        )
    cast = {"uc": "unicast", "mc": "multicast"}.get(cast, cast)
    if cast not in ("unicast", "multicast"):
        raise ProtocolError(
            f"unknown cast {cast!r} in scheme {name!r}; accepted: "
            f"unicast (uc), multicast (mc)"
        )
    return Scheme(multicast=(cast == "multicast"), policy=policy_by_name(policy_name))


#: Scheme name of the S-NUCA baseline: every set pinned to one home bank,
#: no search and no migration (:class:`StaticNUCAEngine`).
STATIC_NUCA = "static-nuca"


class _HomeBankScheme(Scheme):
    """The S-NUCA baseline as a scheme: LRU contents, home-bank timing."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return STATIC_NUCA


class StaticNUCAEngine:
    """S-NUCA timing (the paper's Section-2 baseline) over a geometry.

    Every access goes straight to its set's home bank, with no search and
    no migration::

        core --request--> home bank --data/miss--> core / memory

    It reserves the same channels, banks and memory pipe as
    :class:`TransactionEngine`, so the comparison isolates the policy. It
    admits accesses without column slots and records no span or chain
    histograms: a home-bank access has no search legs and no chain.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        memory: MemoryModel,
        home_bank: Callable[[int, int], int],
    ) -> None:
        self.geometry = geometry
        self.memory = memory
        #: (column, index) -> the bank position the whole set lives in.
        self.home_bank = home_bank
        self.metrics = MetricsRegistry()

    def reset(self) -> None:
        """Nothing to forget: accesses are admitted without slots."""

    def fold_spans(self) -> None:
        """Nothing to fold: a home-bank access records no span legs."""

    def _bank_acquire(
        self, column: int, position: int, time: int, replace: bool
    ) -> tuple[int, int]:
        timing = self.geometry.bank(column, position).timing
        latency = timing.tag_replace_latency if replace else timing.tag_latency
        start = self.geometry.bank_resource(column, position).acquire(
            time, latency
        )
        return start + latency, latency

    def execute(
        self,
        column: int,
        index: int,
        outcome: AccessOutcome,
        issue_time: int,
        is_write: bool = False,
        core_node=None,
    ) -> Transaction:
        """Time one access to set (*column*, *index*) at its home bank."""
        geometry = self.geometry
        geometry.floor_clock.advance(issue_time)
        bank = self.home_bank(column, index)
        hit = outcome.hit
        arrival = geometry.core_to_bank(
            column, bank, issue_time, CONTROL, core=core_node
        )
        done, charged = self._bank_acquire(column, bank, arrival, replace=not hit)
        memory_cycles = 0
        if hit:
            reply = CONTROL if is_write else DATA
            data_at_core = geometry.bank_to_core(
                column, bank, done, reply, core=core_node
            )
            completion = data_at_core
        else:
            mem_request = geometry.bank_to_memory(column, bank, done, CONTROL)
            _, ready = self.memory.read(mem_request)
            memory_cycles = ready - mem_request
            fill = geometry.memory_to_bank(column, bank, ready, DATA)
            fill_done, extra = self._bank_acquire(column, bank, fill, replace=True)
            charged += extra
            data_at_core = geometry.bank_to_core(
                column, bank, fill - (DATA - 1), DATA, core=core_node
            )
            completion = max(data_at_core, fill_done)
            if outcome.writeback_required:
                wb = geometry.bank_to_memory(column, bank, fill_done, DATA)
                self.memory.writeback(wb)
        return (
            data_at_core, completion, completion, charged, memory_cycles,
            bank if hit else None,
        )

#: The five scheme combinations of Figure 8, in the paper's legend order.
FIGURE8_SCHEMES = (
    "unicast+promotion",
    "unicast+lru",
    "unicast+fast_lru",
    "multicast+promotion",
    "multicast+fast_lru",
)
