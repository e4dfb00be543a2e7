"""What the package imports: declared dependencies and a lean start.

Every third-party module imported anywhere under ``src/repro`` must be a
declared dependency in ``pyproject.toml``, or an install from the
package metadata alone breaks on import. And a process loads a heavy
dependency only where it runs code that needs it: numpy builds traces,
so the flit-level load curve and the streaming service, which never
build one, must start without it.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"


def _imported_top_levels(path: Path) -> set[str]:
    """Top-level names of every absolute import in *path*, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(_ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
        for requirement in requirements
    }
    undeclared = {}
    for path in sorted((_SRC / "repro").rglob("*.py")):
        for name in _imported_top_levels(path):
            if name in ("repro", "__future__") or name in sys.stdlib_module_names:
                continue
            if name.lower() not in declared:
                undeclared.setdefault(name, str(path.relative_to(_ROOT)))
    assert not undeclared, f"imported but not declared: {undeclared}"


_LEAN_START = r"""
import json
import sys

import repro
from repro.experiments.noc_load import run_load_point
from repro.stream.engine import stream_spec_for

for core in ("object", "array"):
    run_load_point(0.1, cycles=30, core=core)
stream_spec_for("C", "drop-tail", "duo-bursty", cycles=300, core="array").execute()
loaded = [name for name in ("numpy", "networkx") if name in sys.modules]

from repro.workloads import TraceGenerator, profile_by_name

TraceGenerator(profile_by_name("art"), seed=1).generate(50)
print(json.dumps({"loaded": loaded, "numpy_after_trace": "numpy" in sys.modules}))
"""


def test_flit_and_stream_runs_start_without_numpy_or_networkx():
    path = os.pathsep.join(filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _LEAN_START],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["loaded"] == []
    # Building a trace does load numpy, so the check above is not vacuous.
    assert out["numpy_after_trace"]
