"""Tests for the analysis framework itself: driving and the CLI.

The load-bearing assertions: the repo's own source is clean under every
rule, no comment exempts a finding, and ``repro lint`` exits nonzero
exactly when findings exist.
"""

import os
import subprocess
import sys

import pytest

from repro.analysis import (
    AnalysisError,
    all_rules,
    analyze_paths,
    analyze_source,
    module_name_for,
    render_findings,
    rule_by_id,
)

_VIOLATION = "import time\n\nSTARTED = time.time()\n"
#: A ``repro: allow`` comment is plain text to the analyzer: it exempts nothing.
_ALLOWED_VIOLATION = (
    "import time\n\n"
    "STARTED = time.time()  # repro: allow[det-wallclock] -- reason\n"
)


class TestDriving:
    def test_syntax_error_yields_parse_error_finding(self):
        findings = analyze_source("<t>", "def broken(:\n")
        assert [finding.rule for finding in findings] == ["parse-error"]

    def test_findings_sort_by_location(self):
        source = (
            "import time\n\n"
            "def f(x, acc=[]):\n"
            "    return time.time()\n"
        )
        findings = analyze_source("<t>", source, module="repro.experiments.x")
        assert [f.rule for f in findings] == [
            "proc-mutable-default", "det-wallclock",
        ]
        assert findings == sorted(findings)

    def test_render_includes_location_and_verdict_line(self):
        findings = analyze_source(
            "pkg/mod.py", _VIOLATION, module="repro.experiments.x"
        )
        text = render_findings(findings)
        assert "pkg/mod.py:3:" in text
        assert "[det-wallclock]" in text
        assert text.endswith("repro lint: 1 finding")
        assert render_findings([]).endswith("repro lint: 0 findings")

    def test_module_name_for(self):
        import pathlib

        cases = {
            "src/repro/noc/router.py": "repro.noc.router",
            "src/repro/telemetry/__init__.py": "repro.telemetry",
            "tests/noc/test_router.py": None,
        }
        for path, expected in cases.items():
            assert module_name_for(pathlib.Path(path)) == expected

    def test_rule_registry_is_complete_and_queryable(self):
        rules = all_rules()
        assert {rule.id for rule in rules} == {
            "det-wallclock", "det-unordered-reduce", "det-np-unstable-sort",
            "proc-mutable-default",
            "exc-bare", "exc-silent", "exc-broad-hotpath",
        }
        assert rule_by_id("det-wallclock").family == "determinism"
        with pytest.raises(AnalysisError, match="unknown rule"):
            rule_by_id("no-such-rule")


class TestRepoIsClean:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        findings = analyze_paths(["src/repro"])
        assert findings == [], render_findings(findings)


class TestCommandLine:
    def _run(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True, text=True, env=env, cwd=os.getcwd(),
        )

    def test_list_rules_exits_zero(self):
        completed = self._run("--list-rules")
        assert completed.returncode == 0
        assert "det-wallclock" in completed.stdout

    def test_violating_file_exits_nonzero(self, tmp_path):
        bad = tmp_path / "repro" / "experiments" / "demo.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(_VIOLATION, encoding="utf-8")
        completed = self._run(str(bad))
        assert completed.returncode == 1
        assert "[det-wallclock]" in completed.stderr

    def test_allow_comment_still_exits_nonzero(self, tmp_path):
        bad = tmp_path / "repro" / "experiments" / "demo.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(_ALLOWED_VIOLATION, encoding="utf-8")
        completed = self._run(str(bad))
        assert completed.returncode == 1
        assert "[det-wallclock]" in completed.stderr

    def test_clean_file_exits_zero(self, tmp_path):
        good = tmp_path / "clean.py"
        good.write_text("x = 1\n", encoding="utf-8")
        completed = self._run(str(good))
        assert completed.returncode == 0
        assert "0 findings" in completed.stdout
