"""Fixture-backed tests for the process-safety rule family."""

import pytest

from tests.analysis.fixtures import fixtures_for, labelled
from tests.analysis.helpers import assert_fixture_verdict

_FIXTURES, _IDS = labelled(fixtures_for("process-safety"))


@pytest.mark.parametrize("fixture", _FIXTURES, ids=_IDS)
def test_process_safety_fixture(fixture):
    assert_fixture_verdict(fixture)


def test_family_has_all_three_kinds_per_rule():
    kinds_by_rule = {}
    for fixture in _FIXTURES:
        kinds_by_rule.setdefault(fixture.rule, set()).add(fixture.kind)
    assert set(kinds_by_rule) == {"proc-mutable-default"}
    for rule, kinds in kinds_by_rule.items():
        assert kinds == {"positive", "negative"}, rule

