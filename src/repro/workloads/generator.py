"""Synthetic L2 trace generation.

The generator draws block reuse from a Zipf distribution over the
benchmark's footprint (skewed reuse concentrates hits in the MRU banks,
exactly the property LRU exploits over Promotion), mixed with a stream of
never-seen blocks (compulsory misses). Block numbers are scattered over
the cache's sets with a bijective multiplicative hash so Zipf rank does
not correlate with bank column.

Set sampling
------------
The paper simulates billions of instructions against 16 K sets; at
laptop-trace scale (tens of thousands of accesses) each set would see less
than one access and the bank-set stacks would never develop realistic
depth. We therefore use standard *set sampling*: traffic is concentrated
into ``index_space`` (default 8) of the 1024 index values, shrinking the
effective cache to ``16 columns x index_space x 16 ways`` blocks while
keeping every column, way, and network path exercised. Benchmark
footprints in :mod:`repro.workloads.profiles` are calibrated against this
effective capacity.

Generation is fully deterministic given ``(profile, seed, length)``.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.cache.address import AddressMapper
from repro.errors import TraceError
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.trace import Trace

#: Default number of sampled index values (of the 1024 the address allows).
#: 8 indexes x 16 columns x 16 ways = 2048 effective blocks, dense enough
#: for realistic per-set stack dynamics at trace scale.
DEFAULT_INDEX_SPACE = 8
#: Odd multiplier => bijective scatter modulo a power of two.
_SCATTER = 0x9E3779B1


class TraceGenerator:
    """Deterministic generator bound to one benchmark profile."""

    def __init__(
        self,
        profile: BenchmarkProfile,
        seed: int = 12345,
        index_space: int = DEFAULT_INDEX_SPACE,
        mapper: AddressMapper | None = None,
    ) -> None:
        if index_space < 1 or index_space & (index_space - 1):
            raise TraceError("index_space must be a power of two")
        self.profile = profile
        self.seed = seed
        self.index_space = index_space
        self.mapper = mapper or AddressMapper()
        if index_space > self.mapper.sets_per_bank:
            raise TraceError(
                f"index_space {index_space} exceeds the address layout's "
                f"{self.mapper.sets_per_bank} sets"
            )
        layout = self.mapper.layout
        #: Scatter domain: tag x sampled-index x column.
        self._space_bits = (
            layout.tag_bits + index_space.bit_length() - 1 + layout.column_bits
        )
        self._space_mask = (1 << self._space_bits) - 1
        #: Streaming blocks start above any plausible footprint.
        self._stream_base = 1 << (self._space_bits - 1)

    def _addresses(self, blocks: np.ndarray) -> list[int]:
        """32-bit addresses of *blocks*, scattered over the sampled space.

        The scattered id splits, from the low bits up, into column,
        sampled index and tag. Every address field is at least one bit
        wide, so the scatter domain has at most 31 bits and the int64
        product stays below 2**63.
        """
        layout = self.mapper.layout
        index_bits = self.index_space.bit_length() - 1
        block = (blocks * _SCATTER) & self._space_mask
        column = block & (layout.num_columns - 1)
        index = (block >> layout.column_bits) & (self.index_space - 1)
        tag = block >> (layout.column_bits + index_bits)
        column_shift = layout.offset_bits
        index_shift = column_shift + layout.column_bits
        tag_shift = index_shift + layout.index_bits
        address = (
            (tag << tag_shift) | (index << index_shift) | (column << column_shift)
        )
        return address.tolist()

    def generate_with_warmup(self, measure: int) -> tuple[Trace, int]:
        """Trace with a deterministic warm-up prefix; returns (trace, warmup).

        The prefix touches every footprint block once (so compulsory misses
        do not leak into measurement -- the paper's 100 M warm-up
        instructions serve the same purpose) followed by half a footprint
        of Zipf accesses that establish realistic stack order, then
        *measure* accesses to be measured.
        """
        if measure < 1:
            raise TraceError("measure must be positive")
        resident = self.profile.footprint_blocks + self.profile.band_blocks
        mix = int(resident * 0.5)
        addresses, writes, gaps = self._columns(mix + measure)
        rng = np.random.default_rng(
            (self.seed + 1, zlib.crc32(self.profile.name.encode("utf-8")))
        )
        order = rng.permutation(resident)
        cover_gaps = rng.geometric(
            p=min(1.0, self.profile.l2_access_per_instr), size=resident
        )
        trace = Trace(
            self._addresses(order) + addresses,
            [False] * resident + writes,
            cover_gaps.tolist() + gaps,
            name=f"{self.profile.name}-w{resident + mix}+{measure}@{self.seed}",
        )
        return trace, resident + mix

    def generate(self, length: int) -> Trace:
        """Produce a trace of *length* accesses."""
        return Trace(
            *self._columns(length),
            name=f"{self.profile.name}-{length}@{self.seed}",
        )

    def _columns(self, length: int) -> tuple[list[int], list[bool], list[int]]:
        """(addresses, writes, gaps) of a *length*-access trace."""
        if length < 1:
            raise TraceError("trace length must be positive")
        profile = self.profile
        if profile.footprint_blocks + profile.band_blocks >= self._stream_base:
            raise TraceError(
                f"footprint {profile.footprint_blocks} + band "
                f"{profile.band_blocks} exceeds the sampled block space "
                f"({self._stream_base})"
            )
        # zlib.crc32 is stable across processes (str.__hash__ is not).
        rng = np.random.default_rng(
            (self.seed, zlib.crc32(profile.name.encode("utf-8")))
        )

        # Zipf over the footprint: p(k) ~ 1 / (k+1)^alpha.
        footprint = profile.footprint_blocks
        ranks = np.arange(1, footprint + 1, dtype=np.float64)
        weights = ranks ** -profile.zipf_alpha
        weights /= weights.sum()
        reuse_blocks = rng.choice(footprint, size=length, p=weights)

        # A random rank->block permutation decouples hotness from identity.
        permutation = rng.permutation(footprint)
        reuse_blocks = permutation[reuse_blocks]

        # Component selection: stream | loop band | zipf reuse.
        selector = rng.random(length)
        is_stream = selector < profile.stream_fraction
        is_band = (~is_stream) & (
            selector < profile.stream_fraction + profile.band_fraction
        )
        blocks = reuse_blocks
        if profile.band_fraction > 0:
            band_ids = footprint + rng.integers(
                0, profile.band_blocks, size=length
            )
            blocks = np.where(is_band, band_ids, blocks)
        stream_ids = self._stream_base + np.cumsum(is_stream)
        blocks = np.where(is_stream, stream_ids, blocks)

        is_write = rng.random(length) < profile.write_fraction
        gaps = rng.geometric(
            p=min(1.0, profile.l2_access_per_instr), size=length
        )
        return self._addresses(blocks), is_write.tolist(), gaps.tolist()


def generate_trace(
    profile: BenchmarkProfile,
    length: int = 60_000,
    seed: int = 12345,
    index_space: int = DEFAULT_INDEX_SPACE,
) -> Trace:
    """Convenience wrapper: one-shot deterministic trace."""
    return TraceGenerator(profile, seed, index_space=index_space).generate(length)
