"""Tests for the strict-typing gate: parsing, ratchet, baseline hygiene."""

import pytest

from repro.analysis import AnalysisError
from repro.analysis.typegate import (
    BASELINE_NAME,
    TYPED_CORE,
    TypeGateReport,
    baseline_problems,
    check_typegate,
    evaluate,
    in_typed_core,
    load_baseline,
    parse_mypy_errors,
)

_CANNED_OUTPUT = """\
src/repro/noc/router.py:10: error: Function is missing a return type annotation
src/repro/noc/router.py:25:9: error: Call to untyped function "foo" in typed context
src/repro/cache/bankset.py:4: error: Missing type parameters for generic type "dict"
src/repro/noc/router.py:30: note: See https://mypy.readthedocs.io
elsewhere/other.py:1: error: Not a repro module
Found 4 errors in 3 files (checked 80 source files)
"""


class TestParsing:
    def test_counts_errors_per_module(self):
        counts = parse_mypy_errors(_CANNED_OUTPUT)
        assert counts == {"repro.noc.router": 2, "repro.cache.bankset": 1}

    def test_notes_and_summary_lines_ignored(self):
        assert parse_mypy_errors("just chatter\n") == {}


class TestEvaluate:
    def test_baselined_errors_pass(self):
        report = evaluate(
            {"repro.noc.router": 2}, ["repro.noc.router"]
        )
        assert report.ok
        assert report.baselined_errors == 2
        assert report.offenders == {}

    def test_unbaselined_module_fails_the_ratchet(self):
        report = evaluate({"repro.noc.router": 2}, [])
        assert not report.ok
        assert report.offenders == {"repro.noc.router": 2}
        assert "only shrinks" in report.render()
        assert "FAILED" in report.render()

    def test_clean_baselined_module_is_reported_stale(self):
        report = evaluate({}, ["repro.noc.router"])
        assert report.ok  # stale entries warn, they do not fail
        assert report.stale == ["repro.noc.router"]
        assert BASELINE_NAME in report.render()

    def test_skipped_report_renders_as_skipped(self):
        report = TypeGateReport(ran=False)
        assert report.ok
        assert "skipped" in report.render()


class TestBaselineHygiene:
    def test_sorted_unique_repro_entries_are_sound(self):
        assert baseline_problems(["repro.cache.bankset", "repro.noc.router"]) == []

    def test_unsorted_entries_rejected(self):
        problems = baseline_problems(["repro.noc.router", "repro.cache.bankset"])
        assert any("sorted" in problem for problem in problems)

    def test_duplicate_entries_rejected(self):
        problems = baseline_problems(["repro.noc.router", "repro.noc.router"])
        assert any("unique" in problem for problem in problems)

    def test_typed_core_entries_rejected(self):
        problems = baseline_problems(["repro.sim.resource"])
        assert any("typed-core" in problem for problem in problems)

    def test_foreign_modules_rejected(self):
        problems = baseline_problems(["numpy.random"])
        assert any("not repro modules" in problem for problem in problems)

    def test_load_baseline_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.txt") == []

    def test_load_baseline_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / BASELINE_NAME
        path.write_text(
            "# header\n\nrepro.cache.bankset\nrepro.noc.router\n",
            encoding="utf-8",
        )
        assert load_baseline(path) == [
            "repro.cache.bankset", "repro.noc.router",
        ]

    def test_load_baseline_raises_on_damage(self, tmp_path):
        path = tmp_path / BASELINE_NAME
        path.write_text("repro.sim.resource\n", encoding="utf-8")
        with pytest.raises(AnalysisError, match="typed-core"):
            load_baseline(path)

    def test_in_typed_core_prefixes(self):
        assert in_typed_core("repro.sim")
        assert in_typed_core("repro.sim.resource")
        assert in_typed_core("repro.experiments.runner")
        assert not in_typed_core("repro.experiments.cache")
        assert not in_typed_core("repro.simulator")  # prefix, not substring


class TestRepoBaseline:
    def test_checked_in_baseline_is_structurally_sound(self):
        entries = load_baseline(BASELINE_NAME)  # raises on damage
        assert entries, "baseline unexpectedly empty"
        assert not any(in_typed_core(entry) for entry in entries)

    def test_gate_skips_gracefully_without_mypy(self, monkeypatch):
        import repro.analysis.typegate as typegate

        monkeypatch.setattr(typegate, "mypy_available", lambda: False)
        report = check_typegate(".")
        assert report.ok
        assert not report.ran

    def test_typed_core_covers_the_contract_modules(self):
        assert "repro.analysis" in TYPED_CORE
        assert "repro.sim" in TYPED_CORE
        assert "repro.telemetry" in TYPED_CORE
        assert "repro.experiments.runner" in TYPED_CORE
