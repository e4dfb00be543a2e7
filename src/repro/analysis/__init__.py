"""Static analysis: the bug classes no runtime check catches.

The hash-seed guard, the determinism triangle, the goldens, the
telemetry catalog test and the cross-core differential catch most
determinism and safety bugs at runtime. This package keeps the AST
rules whose bugs pass all of those (DESIGN.md §12):

* :mod:`repro.analysis.rules` -- wall-clock reads, reductions over
  sets and unstable numpy sorts in the simulation core, mutable default
  arguments, and bare, silent or broad exception handlers;
* :mod:`repro.analysis.typegate` -- the ``mypy --strict`` typed-core
  gate against the ratcheted ``mypy-baseline.txt``.

Run it as ``repro lint``; it fails on any finding.
"""

from repro.analysis.core import (
    AnalysisError,
    Finding,
    ModuleInfo,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
    module_name_for,
    render_findings,
    rule_by_id,
)

# Importing the rule module registers its rules with the registry.
from repro.analysis import rules as _rules  # noqa: F401

__all__ = [
    "AnalysisError",
    "Finding",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "module_name_for",
    "render_findings",
    "rule_by_id",
]
