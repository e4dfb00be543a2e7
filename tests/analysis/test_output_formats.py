"""Deterministic finding output: stable ordering, byte-identical diffs.

Lint output feeds a baseline ratchet and CI artifacts; both only work
if two runs over the same tree produce byte-identical text, JSON, and
SARIF regardless of filesystem enumeration order or rule registration
order.
"""

import json
import os
import subprocess
import sys

from repro.analysis import Finding, analyze_paths, render_findings
from repro.analysis.sarif import render_sarif

_TREE = {
    "repro/experiments/zed.py": "import time\n\nB = time.time()\nA = time.time()\n",
    "repro/experiments/abel.py": "import time\n\nX = time.time()\n",
}


def _materialize(tmp_path):
    for rel, source in _TREE.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return tmp_path / "repro"


def test_findings_sorted_by_path_line_rule(tmp_path):
    root = _materialize(tmp_path)
    findings = analyze_paths([root])
    keys = [(f.path, f.line, f.rule) for f in findings]
    assert keys == sorted(keys)
    assert [os.path.basename(f.path) for f in findings] == [
        "abel.py", "zed.py", "zed.py",
    ]


def test_path_argument_order_does_not_change_output(tmp_path):
    root = _materialize(tmp_path)
    forward = analyze_paths([root / "experiments" / "abel.py",
                             root / "experiments" / "zed.py"])
    backward = analyze_paths([root / "experiments" / "zed.py",
                              root / "experiments" / "abel.py"])
    assert forward == backward
    assert render_findings(forward) == render_findings(backward)


def test_json_and_sarif_are_byte_identical_across_runs(tmp_path):
    root = _materialize(tmp_path)
    first = analyze_paths([root])
    second = analyze_paths([root])
    as_json = [json.dumps([f.payload() for f in run], sort_keys=True)
               for run in (first, second)]
    assert as_json[0] == as_json[1]
    assert render_sarif(first) == render_sarif(second)


def test_sarif_shape_and_rule_index_coherence():
    findings = [
        Finding(path="b.py", line=2, col=1, rule="det-wallclock", message="w"),
        Finding(path="a.py", line=9, col=1, rule="parse-error", message="p"),
    ]
    document = json.loads(render_sarif(findings))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == sorted(r["id"] for r in rules)
    results = run["results"]
    # Results sorted by (path, line, rule), not input order.
    assert [r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for r in results] == ["a.py", "b.py"]
    for result in results:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
    # No timestamps anywhere: rendering twice is byte-identical.
    assert render_sarif(findings) == render_sarif(list(reversed(findings)))


def test_sarif_with_no_findings_still_lists_rules():
    document = json.loads(render_sarif([]))
    run = document["runs"][0]
    assert run["results"] == []
    assert any(r["id"] == "df-taint-state"
               for r in run["tool"]["driver"]["rules"])


def test_cli_sarif_format_round_trips(tmp_path):
    bad = tmp_path / "repro" / "experiments" / "demo.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\nT = time.time()\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    runs = [
        subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(bad),
             "--format", "sarif"],
            capture_output=True, text=True, env=env, cwd=os.getcwd(),
        )
        for _ in range(2)
    ]
    assert all(completed.returncode == 1 for completed in runs)
    assert runs[0].stdout == runs[1].stdout
    document = json.loads(runs[0].stdout)
    assert document["runs"][0]["results"][0]["ruleId"] == "det-wallclock"
