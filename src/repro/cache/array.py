"""The full L2 contents: every bank set of every column.

Bank sets are materialized lazily (a 16 MB cache has 16K sets, most of
which small traces never touch). All sets in a column share the same
``bank_of_way`` mapping derived from the column's bank descriptors.
"""

from __future__ import annotations

from repro.cache.address import AddressMapper
from repro.cache.bank import BankDescriptor, bank_of_way
from repro.cache.bankset import AccessOutcome, BankSetState, BankSetStats
from repro.cache.replacement import ReplacementPolicy
from repro.errors import ConfigurationError


class CacheArray:
    """Contents simulation for the whole banked L2."""

    def __init__(
        self,
        columns: list[list[BankDescriptor]],
        policy: ReplacementPolicy,
        mapper: AddressMapper | None = None,
    ) -> None:
        if not columns:
            raise ConfigurationError("cache needs at least one column")
        self.columns = columns
        self.policy = policy
        self.mapper = mapper or AddressMapper()
        if len(columns) != self.mapper.num_columns:
            raise ConfigurationError(
                f"{len(columns)} columns but the address layout selects "
                f"{self.mapper.num_columns}"
            )
        self._bank_of_way = [bank_of_way(descriptors) for descriptors in columns]
        self._sets: dict[tuple[int, int], BankSetState] = {}
        self.stats = BankSetStats()
        #: Optional content validator (see repro.validation.invariants):
        #: when set, ``validator.on_access`` sees each access's set key,
        #: tag, before/after set state and outcome. None in normal runs.
        self.validator = None

    def associativity(self, column: int) -> int:
        return len(self._bank_of_way[column])

    def set_state(self, column: int, index: int) -> BankSetState:
        """The (lazily created) bank set at (column, index)."""
        key = (column, index)
        state = self._sets.get(key)
        if state is None:
            state = self._sets[key] = self._new_set(column, index)
        return state

    def _new_set(self, column: int, index: int) -> BankSetState:
        """An empty set (*column*, *index*), its ways spread down the column."""
        return BankSetState(self._bank_of_way[column])

    def access(
        self, column: int, index: int, tag: int, is_write: bool = False
    ) -> AccessOutcome:
        """Apply one access to set (*column*, *index*) and record statistics."""
        key = (column, index)
        state = self._sets.get(key)
        if state is None:
            state = self._sets[key] = self._new_set(column, index)
        if self.validator is None:
            outcome = self.policy.access(state, tag, is_write)
        else:
            before = state.resident_tags()
            outcome = self.policy.access(state, tag, is_write)
            self.validator.on_access(key, tag, before, state, outcome)
        self.stats.record(outcome)
        return outcome

    @property
    def touched_sets(self) -> int:
        return len(self._sets)

    def occupancy(self) -> int:
        """Number of resident blocks across all materialized sets."""
        return sum(
            sum(1 for block in state.ways if block is not None)
            for state in self._sets.values()
        )

    def contents_digest(self) -> str:
        """Deterministic digest of every materialized set's exact contents.

        Two arrays that saw the same access sequence under the same policy
        produce the same digest -- the differential oracle's final-contents
        observable.
        """
        import hashlib

        digest = hashlib.sha256()
        for key in sorted(self._sets):
            digest.update(repr((key, self._sets[key].signature())).encode())
        return digest.hexdigest()[:16]
