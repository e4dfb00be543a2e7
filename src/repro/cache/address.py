"""32-bit address decomposition (Section 5).

``tag (12) | index (10) | bank-column (4) | offset (6)``

The *bank-column* field picks one of the 16 columns of the network (one
bank set group); the *index* picks the set inside every bank of that
column; the ways of the set are spread over the column's banks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import AddressLayout
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Address:
    """A decoded physical address."""

    raw: int
    tag: int
    index: int
    column: int
    offset: int

    @property
    def block_address(self) -> int:
        """Address with the offset bits cleared (block granularity)."""
        return self.raw - self.offset

    @property
    def set_key(self) -> tuple[int, int]:
        """(column, index) identifying the bank set this address maps to."""
        return (self.column, self.index)


class AddressMapper:
    """Encode/decode addresses according to an :class:`AddressLayout`."""

    def __init__(self, layout: AddressLayout | None = None) -> None:
        self.layout = layout or AddressLayout()
        lay = self.layout
        self._offset_mask = (1 << lay.offset_bits) - 1
        self._column_mask = (1 << lay.column_bits) - 1
        self._index_mask = (1 << lay.index_bits) - 1
        self._tag_mask = (1 << lay.tag_bits) - 1
        self._column_shift = lay.offset_bits
        self._index_shift = lay.offset_bits + lay.column_bits
        self._tag_shift = lay.offset_bits + lay.column_bits + lay.index_bits

    def decode(self, raw: int) -> Address:
        """Split a raw 32-bit address into its fields."""
        if raw < 0 or raw >= (1 << 32):
            raise ConfigurationError(f"address {raw:#x} is not a 32-bit value")
        return Address(
            raw=raw,
            tag=(raw >> self._tag_shift) & self._tag_mask,
            index=(raw >> self._index_shift) & self._index_mask,
            column=(raw >> self._column_shift) & self._column_mask,
            offset=raw & self._offset_mask,
        )

    def decode_columns(
        self, raw: Sequence[int]
    ) -> tuple[list[int], list[int], list[int]]:
        """``(columns, indexes, tags)`` of every address in *raw*.

        The whole-trace form of :meth:`decode`: one range check and three
        masked shifts over the column, returned as lists of Python ints.
        """
        import numpy as np

        try:
            values = np.array(raw, dtype=np.int64)
        except OverflowError:
            values = None
        if values is None or (
            len(values) and (values.min() < 0 or values.max() >= 1 << 32)
        ):
            bad = next(a for a in raw if not 0 <= a < 1 << 32)
            raise ConfigurationError(f"address {bad:#x} is not a 32-bit value")
        return (
            ((values >> self._column_shift) & self._column_mask).tolist(),
            ((values >> self._index_shift) & self._index_mask).tolist(),
            ((values >> self._tag_shift) & self._tag_mask).tolist(),
        )

    def encode(self, tag: int, index: int, column: int, offset: int = 0) -> int:
        """Compose a raw address from field values (range-checked)."""
        if not 0 <= tag <= self._tag_mask:
            raise ConfigurationError(f"tag {tag} out of range")
        if not 0 <= index <= self._index_mask:
            raise ConfigurationError(f"index {index} out of range")
        if not 0 <= column <= self._column_mask:
            raise ConfigurationError(f"column {column} out of range")
        if not 0 <= offset <= self._offset_mask:
            raise ConfigurationError(f"offset {offset} out of range")
        return (
            (tag << self._tag_shift)
            | (index << self._index_shift)
            | (column << self._column_shift)
            | offset
        )

    @property
    def num_columns(self) -> int:
        return self.layout.num_columns

    @property
    def sets_per_bank(self) -> int:
        return self.layout.sets_per_bank

    def block_number(self, raw: int) -> int:
        """Sequential block number (address without the offset bits)."""
        return raw >> self.layout.offset_bits
