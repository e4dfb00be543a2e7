"""Shared assertion helpers for the static-analysis test suite."""

from repro.analysis import analyze_source

from tests.analysis.fixtures import Fixture


def flagged_rules(fixture: Fixture) -> set[str]:
    findings = analyze_source(
        "<fixture>", fixture.source, module=fixture.module
    )
    return {finding.rule for finding in findings}


def assert_fixture_verdict(fixture: Fixture) -> None:
    rules = flagged_rules(fixture)
    if fixture.kind == "positive":
        assert fixture.rule in rules, (
            f"{fixture.rule} missed a violation in:\n{fixture.source}"
        )
    elif fixture.kind == "negative":
        assert fixture.rule not in rules, (
            f"{fixture.rule} false positive in:\n{fixture.source}"
        )
    else:
        raise AssertionError(f"unknown fixture kind {fixture.kind!r}")
