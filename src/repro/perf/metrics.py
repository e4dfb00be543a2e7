"""Streaming latency statistics with the Fig.-7 decomposition."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LatencyStats:
    """Frozen summary of one latency population."""

    count: int
    mean: float
    minimum: int
    maximum: int


@dataclass
class LatencyAccumulator:
    """Accumulates access latencies split into hit/miss populations and
    into the bank / network / memory components of Figure 7."""

    total_count: int = 0
    total_sum: int = 0
    total_min: int | None = None
    total_max: int = 0
    hit_count: int = 0
    hit_sum: int = 0
    miss_count: int = 0
    miss_sum: int = 0
    bank_sum: int = 0
    network_sum: int = 0
    memory_sum: int = 0
    hits_per_bank: dict[int, int] = field(default_factory=dict)

    def record(self, latency: int, hit: bool, bank: int, network: int,
               memory: int, bank_position: int | None = None) -> None:
        """Add one access.

        :meth:`~repro.core.system.NetworkedCacheSystem.replay` applies the
        same update inline and adds its sums when a core yields;
        ``tests/core/test_replay_kernel.py`` checks the two agree.
        """
        self.total_count += 1
        self.total_sum += latency
        self.total_min = latency if self.total_min is None else min(self.total_min, latency)
        self.total_max = max(self.total_max, latency)
        if hit:
            self.hit_count += 1
            self.hit_sum += latency
            if bank_position is not None:
                self.hits_per_bank[bank_position] = (
                    self.hits_per_bank.get(bank_position, 0) + 1
                )
        else:
            self.miss_count += 1
            self.miss_sum += latency
        self.bank_sum += bank
        self.network_sum += network
        self.memory_sum += memory

    # -- summaries ----------------------------------------------------------

    @property
    def average_latency(self) -> float:
        return self.total_sum / self.total_count if self.total_count else 0.0

    @property
    def average_hit_latency(self) -> float:
        return self.hit_sum / self.hit_count if self.hit_count else 0.0

    @property
    def average_miss_latency(self) -> float:
        return self.miss_sum / self.miss_count if self.miss_count else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hit_count / self.total_count if self.total_count else 0.0

    def breakdown(self) -> dict[str, float]:
        """Average cycles per access spent in bank / network / memory."""
        if not self.total_count:
            return {"bank": 0.0, "network": 0.0, "memory": 0.0}
        return {
            "bank": self.bank_sum / self.total_count,
            "network": self.network_sum / self.total_count,
            "memory": self.memory_sum / self.total_count,
        }

    def breakdown_fractions(self) -> dict[str, float]:
        """Share of the average latency per component (sums to 1)."""
        total = self.bank_sum + self.network_sum + self.memory_sum
        if total == 0:
            return {"bank": 0.0, "network": 0.0, "memory": 0.0}
        return {
            "bank": self.bank_sum / total,
            "network": self.network_sum / total,
            "memory": self.memory_sum / total,
        }

    def mru_hit_fraction(self) -> float:
        if not self.hit_count:
            return 0.0
        return self.hits_per_bank.get(0, 0) / self.hit_count

    def summary(self) -> LatencyStats:
        return LatencyStats(
            count=self.total_count,
            mean=self.average_latency,
            minimum=self.total_min or 0,
            maximum=self.total_max,
        )
