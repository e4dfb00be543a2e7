"""Static NUCA system: the paper's Section-2 baseline, end to end.

Every access goes straight to its home bank (no search, no migration):

    core --request--> home bank --data/miss--> core / memory

Uses the same geometry, contention resources, memory model, and issue
model as the D-NUCA systems so the comparison isolates the *policy*.
"""

from __future__ import annotations

from repro.cache.bankset import BankSetStats
from repro.cache.memory import MemoryModel
from repro.cache.static_nuca import StaticNUCAArray
from repro.cache.address import AddressMapper
from repro.core.designs import DesignSpec, design_spec
from repro.core.flows import CONTROL, DATA, AccessTiming
from repro.core.system import RunResult, resolve_warmup
from repro.errors import ConfigurationError
from repro.perf.ipc import IssueModel
from repro.perf.metrics import LatencyAccumulator
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.trace import Trace


class StaticNUCASystem:
    """S-NUCA over the same fabric as the D-NUCA designs."""

    scheme_name = "static-nuca"

    def __init__(
        self,
        design: str | DesignSpec = "A",
        mapper: AddressMapper | None = None,
    ) -> None:
        self.spec = design_spec(design) if isinstance(design, str) else design
        self.geometry = self.spec.build()
        self.mapper = mapper or AddressMapper()
        self.array = StaticNUCAArray(
            columns=self.geometry.num_columns,
            banks_per_column=self.geometry.banks_per_column(0),
        )
        self.memory = MemoryModel()
        self.memory.channel.floor_clock = self.geometry.floor_clock

    def _bank_acquire(self, column: int, position: int, time: int,
                      replace: bool) -> tuple[int, int]:
        timing = self.geometry.bank(column, position).timing
        latency = timing.tag_replace_latency if replace else timing.tag_latency
        start = self.geometry.bank_resource(column, position).acquire(
            time, latency
        )
        return start + latency, latency

    def _access_timing(self, column: int, bank: int, hit: bool,
                       writeback: bool, issue_time: int,
                       is_write: bool) -> AccessTiming:
        self.geometry.floor_clock.advance(issue_time)
        arrival = self.geometry.core_to_bank(column, bank, issue_time, CONTROL)
        done, charged = self._bank_acquire(column, bank, arrival, replace=not hit)
        memory_cycles = 0
        if hit:
            reply = CONTROL if is_write else DATA
            data_at_core = self.geometry.bank_to_core(column, bank, done, reply)
            completion = data_at_core
        else:
            mem_request = self.geometry.bank_to_memory(column, bank, done, CONTROL)
            _, ready = self.memory.read(mem_request)
            memory_cycles = ready - mem_request
            fill = self.geometry.memory_to_bank(column, bank, ready, DATA)
            fill_done, extra = self._bank_acquire(column, bank, fill, replace=True)
            charged += extra
            data_at_core = self.geometry.bank_to_core(
                column, bank, fill - (DATA - 1), DATA
            )
            completion = max(data_at_core, fill_done)
            if writeback:
                wb = self.geometry.bank_to_memory(column, bank, fill_done, DATA)
                self.memory.writeback(wb)
        return AccessTiming(
            issued=issue_time,
            data_at_core=data_at_core,
            completion=completion,
            hit=hit,
            bank_position=bank if hit else None,
            bank_cycles=charged,
            memory_cycles=memory_cycles,
            settled=completion,
        )

    def run(
        self,
        trace: Trace,
        profile: BenchmarkProfile | None = None,
        perfect_ipc: float | None = None,
        warmup: int | None = None,
        hide_cycles: int = 0,
    ) -> RunResult:
        """Same contract as :meth:`NetworkedCacheSystem.run`."""
        if profile is not None:
            perfect_ipc = profile.perfect_l2_ipc
        if perfect_ipc is None:
            raise ConfigurationError("run() needs a profile or perfect_ipc")
        warmup = resolve_warmup(warmup, len(trace))

        issue = IssueModel(perfect_ipc=perfect_ipc, hide_cycles=hide_cycles)
        latency = LatencyAccumulator()
        stats = BankSetStats()

        columns, indexes, tags = self.mapper.decode_columns(trace.addresses)
        for i, (column, index, tag, is_write, gap) in enumerate(
            zip(columns, indexes, tags, trace.writes, trace.gaps)
        ):
            outcome = self.array.access(column, index, tag, is_write)
            if i < warmup:
                if i == warmup - 1:
                    self.memory.reset()
                    self.geometry.reset_contention()
                    self.array.hits = 0
                    self.array.misses = 0
                continue
            stats.record(outcome)
            issue_time = issue.issue_time(gap)
            timing = self._access_timing(
                column,
                self.array.home_bank(column, index),
                hit=outcome.hit,
                writeback=outcome.writeback_required,
                issue_time=issue_time,
                is_write=is_write,
            )
            issue.complete(timing.data_at_core, is_write=is_write)
            latency.record(
                latency=timing.transaction_latency,
                hit=timing.hit,
                bank=timing.bank_cycles,
                network=timing.network_cycles,
                memory=timing.memory_cycles,
                bank_position=timing.bank_position,
            )

        cycles, ipc = issue.finish()
        return RunResult(
            design=self.spec.key,
            scheme=self.scheme_name,
            benchmark=trace.name,
            accesses=latency.total_count,
            instructions=issue.instructions,
            cycles=cycles,
            ipc=ipc,
            latency=latency,
            content=stats,
            memory_reads=self.memory.reads,
            memory_writebacks=self.memory.writebacks,
        )
