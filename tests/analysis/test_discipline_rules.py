"""Fixture-backed tests for the exception-discipline rule family."""

import pytest

from tests.analysis.fixtures import Fixture, fixtures_for, labelled
from tests.analysis.helpers import assert_fixture_verdict, flagged_rules

_FIXTURES, _IDS = labelled(fixtures_for("exceptions"))


@pytest.mark.parametrize("fixture", _FIXTURES, ids=_IDS)
def test_discipline_fixture(fixture):
    assert_fixture_verdict(fixture)


def test_family_has_all_three_kinds_per_rule():
    kinds_by_rule = {}
    for fixture in _FIXTURES:
        kinds_by_rule.setdefault(fixture.rule, set()).add(fixture.kind)
    assert set(kinds_by_rule) == {"exc-bare", "exc-silent", "exc-broad-hotpath"}
    for rule, kinds in kinds_by_rule.items():
        assert kinds == {"positive", "negative"}, rule


def test_bare_silent_swallow_trips_both_rules():
    rules = flagged_rules(Fixture(
        rule="exc-bare",
        family="exceptions",
        kind="positive",
        module="repro.experiments.demo",
        source=(
            "def attempt(thunk):\n"
            "    try:\n"
            "        thunk()\n"
            "    except:\n"
            "        pass\n"
        ),
    ))
    assert {"exc-bare", "exc-silent"} <= rules

