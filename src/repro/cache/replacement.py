"""Replacement policies: Promotion, LRU, and Fast-LRU (content semantics).

The three policies place blocks differently on a hit:

* **LRU** keeps the bank set a true LRU stack -- the hit block moves to the
  MRU bank and everything closer shifts one bank away (many swaps, but the
  MRU banks concentrate future hits; the paper measures 14 % higher hit
  rate and 5-19 % more MRU-bank hits than Promotion).
* **Promotion** (D-NUCA's policy) moves the hit block only one bank closer
  per hit.
* **Fast-LRU** maintains exactly the LRU ordering; it differs from LRU only
  in *when* the block movements happen (overlapped with tag matching).
  Content-wise it is LRU, which tests assert as an invariant.

On a miss all three fill at the MRU way and demote the stack (Promotion's
recursive replacement, footnote 4 of the paper).
"""

from __future__ import annotations

from repro.cache.bankset import AccessOutcome, BankSetState
from repro.errors import ConfigurationError


class ReplacementPolicy:
    """Strategy applying one access to a bank set's contents."""

    name = "base"
    #: True when the policy's timing overlaps tag match with replacement.
    overlaps_replacement = False

    def access(
        self, state: BankSetState, tag: int, is_write: bool = False
    ) -> AccessOutcome:
        """Look up *tag*, update contents, and report what happened."""
        way = state.find(tag)
        if way is None:
            return self._miss(state, tag, is_write)
        return self._hit(state, way, is_write)

    def _hit(self, state: BankSetState, way: int, is_write: bool) -> AccessOutcome:
        raise NotImplementedError

    def _miss(self, state: BankSetState, tag: int, is_write: bool) -> AccessOutcome:
        victim, moves = state.fill_front(tag, dirty=is_write)
        return AccessOutcome(
            hit=False, way=None, bank=None, moved_boundaries=moves, victim=victim
        )


class LRUPolicy(ReplacementPolicy):
    """True LRU ordering maintained with sequential post-hit swaps."""

    name = "lru"

    def _hit(self, state: BankSetState, way: int, is_write: bool) -> AccessOutcome:
        state.move_to_front(way)
        if is_write:
            state.mark_dirty(0)
        return state.layout.lru_hits[way]


class FastLRUPolicy(LRUPolicy):
    """LRU contents; replacement overlapped with tag delivery (Section 3.2)."""

    name = "fast_lru"
    overlaps_replacement = True


class PromotionPolicy(ReplacementPolicy):
    """D-NUCA promotion: the hit block moves one bank closer per hit.

    ``miss_policy`` selects the footnote-4 fill variant:

    * ``recursive`` (default, what this paper implements): the new block
      enters the MRU way and the whole stack demotes, evicting the LRU;
    * ``zero_copy``: the new block overwrites the MRU way; its previous
      occupant is evicted straight to memory (cheap, but can throw away
      the hottest block);
    * ``one_copy``: the displaced MRU block demotes one way and *that*
      way's occupant is evicted.
    """

    name = "promotion"
    MISS_POLICIES = ("recursive", "zero_copy", "one_copy")

    def __init__(self, miss_policy: str = "recursive") -> None:
        if miss_policy not in self.MISS_POLICIES:
            raise ConfigurationError(
                f"unknown miss policy {miss_policy!r}; "
                f"known: {self.MISS_POLICIES}"
            )
        self.miss_policy = miss_policy

    def _miss(self, state: BankSetState, tag: int, is_write: bool) -> AccessOutcome:
        if self.miss_policy == "zero_copy":
            victim = state.fill_replace_front(tag, dirty=is_write)
            return AccessOutcome(
                hit=False, victim=victim, victim_bank=state.bank_of_way[0]
            )
        if self.miss_policy == "one_copy":
            victim, moves = state.fill_demote_one(tag, dirty=is_write)
            victim_bank = state.bank_of_way[min(1, len(state.bank_of_way) - 1)]
            return AccessOutcome(
                hit=False, victim=victim, moved_boundaries=moves,
                victim_bank=victim_bank,
            )
        return super()._miss(state, tag, is_write)

    def _hit(self, state: BankSetState, way: int, is_write: bool) -> AccessOutcome:
        state.promote(way)
        if is_write:
            # The hit block now sits either at way 0 (MRU-bank local
            # promotion) or at the least-recent way of the next-closer bank.
            state.mark_dirty(state.promotion_target(way))
        return state.layout.promotion_hits[way]


_POLICIES = {
    policy.name: policy for policy in (LRUPolicy, FastLRUPolicy, PromotionPolicy)
}

#: Spelling variants accepted by :func:`policy_by_name` (after lowercasing
#: and mapping ``-``/spaces to ``_``).
_POLICY_ALIASES = {
    "fastlru": "fast_lru",
    "fast_lru": "fast_lru",
    "promo": "promotion",
}


def policy_names() -> tuple[str, ...]:
    """Canonical policy names, in registry order."""
    return tuple(_POLICIES)


def policy_by_name(name: str) -> ReplacementPolicy:
    """Instantiate a policy by its registry name.

    Accepts case-insensitive aliases: ``fastlru``, ``fast-lru``, and
    ``fast lru`` all resolve to ``fast_lru``.
    """
    normalized = name.strip().lower().replace("-", "_").replace(" ", "_")
    normalized = _POLICY_ALIASES.get(normalized, normalized)
    try:
        return _POLICIES[normalized]()
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; accepted: "
            f"{', '.join(_POLICIES)} (aliases: fastlru/fast-lru -> fast_lru)"
        ) from None
