"""Deterministic finding output: stable ordering, byte-identical text.

Two runs over the same tree print the same findings in the same order,
whatever the filesystem enumeration order or the order of the path
arguments.
"""

import os

from repro.analysis import analyze_paths, render_findings

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
