"""Hit outcomes of the replacement policies, pinned per way.

``tests/data/hit_outcome_golden.json`` holds, for the column layout of
every Table-3 design, each of ``lru``, ``fast_lru`` and ``promotion`` and
every way, the :class:`~repro.cache.bankset.AccessOutcome` of a hit at
that way in a full set, field by field, and the ways whose block is dirty
after the same hit is a write. Each ``design/policy`` line lists one row
per way: the outcome's fields in ``FIELDS`` order, then the dirty ways.

To regenerate after an *intentional* policy change::

    PYTHONPATH=src python tests/cache/test_hit_outcomes.py

then review the diff like any other code change.
"""

import dataclasses
import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "hit_outcome_golden.json"

POLICIES = ("lru", "fast_lru", "promotion")
FIELDS = ("hit", "way", "bank", "moved_boundaries", "victim", "victim_bank")


def _layout(design: str) -> list[int]:
    from repro.cache.bank import bank_of_way
    from repro.core.designs import design_spec

    layouts = {tuple(bank_of_way(c)) for c in design_spec(design).build().columns}
    assert len(layouts) == 1, f"design {design} mixes column layouts"
    return list(layouts.pop())


def _hit(policy_name: str, layout: list[int], way: int, is_write: bool):
    """(outcome, state) of a hit at *way* of a full set."""
    from repro.cache.bankset import BankSetState
    from repro.cache.replacement import policy_by_name

    policy = policy_by_name(policy_name)
    state = BankSetState(list(layout))
    for tag in range(len(layout)):
        policy.access(state, tag)
    tag = len(layout) - 1 - way  # fills push earlier tags down the stack
    assert state.find(tag) == way
    return policy.access(state, tag, is_write), state


def _dirty_ways(state) -> list[int]:
    return [way for way, block in enumerate(state.ways) if block.dirty]


def compute_snapshot() -> dict:
    from repro.core.designs import DESIGN_NAMES

    snapshot = {}
    for design in DESIGN_NAMES:
        layout = _layout(design)
        for policy in POLICIES:
            rows = []
            for way in range(len(layout)):
                outcome, _ = _hit(policy, layout, way, False)
                _, state = _hit(policy, layout, way, True)
                fields = dataclasses.asdict(outcome)
                rows.append([fields[name] for name in FIELDS] + [_dirty_ways(state)])
            snapshot[f"{design}/{policy}"] = rows
    return snapshot


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("design", ("A", "B", "C", "D", "E", "F"))
def test_hit_outcomes_match_golden_field_by_field(design, policy):
    rows = _golden()[f"{design}/{policy}"]
    layout = _layout(design)
    assert len(rows) == len(layout)
    for way, row in enumerate(rows):
        outcome, _ = _hit(policy, layout, way, False)
        assert dataclasses.asdict(outcome) == dict(zip(FIELDS, row)), f"way {way}"


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("design", ("A", "C", "D"))
def test_write_hit_dirties_the_moved_block(design, policy):
    rows = _golden()[f"{design}/{policy}"]
    layout = _layout(design)
    for way, row in enumerate(rows):
        _, state = _hit(policy, layout, way, True)
        dirty = _dirty_ways(state)
        assert dirty == row[-1], f"way {way}"
        # The dirty block is the one that hit.
        assert [state.ways[w].tag for w in dirty] == [len(layout) - 1 - way]


def _regenerate() -> None:
    lines = [
        f"{json.dumps(key)}: {json.dumps(rows)}"
        for key, rows in sorted(compute_snapshot().items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
