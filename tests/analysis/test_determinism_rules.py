"""Fixture-backed tests for the determinism rule family.

Positive fixtures must be flagged, negatives must not.
"""

import pytest

from tests.analysis.fixtures import Fixture, fixtures_for, labelled
from tests.analysis.helpers import assert_fixture_verdict, flagged_rules

_FIXTURES, _IDS = labelled(fixtures_for("determinism"))


@pytest.mark.parametrize("fixture", _FIXTURES, ids=_IDS)
def test_determinism_fixture(fixture):
    assert_fixture_verdict(fixture)


def test_family_has_all_three_kinds_per_rule():
    kinds_by_rule = {}
    for fixture in _FIXTURES:
        kinds_by_rule.setdefault(fixture.rule, set()).add(fixture.kind)
    assert set(kinds_by_rule) == {
        "det-wallclock", "det-unordered-reduce", "det-np-unstable-sort",
    }
    for rule, kinds in kinds_by_rule.items():
        assert kinds == {"positive", "negative"}, rule


def test_import_aliasing_is_resolved():
    # `from time import time as now` still reads the wall clock.
    fixture_rules = flagged_rules(Fixture(
        rule="det-wallclock",
        family="determinism",
        kind="positive",
        module="repro.experiments.demo",
        source="from time import time as now\n\nstamp = now()\n",
    ))
    assert "det-wallclock" in fixture_rules


def test_perf_counter_import_alias_outside_core_is_clean():
    fixture_rules = flagged_rules(Fixture(
        rule="det-wallclock",
        family="determinism",
        kind="negative",
        module="repro.experiments.demo",
        source="from time import perf_counter\n\nstarted = perf_counter()\n",
    ))
    assert "det-wallclock" not in fixture_rules
