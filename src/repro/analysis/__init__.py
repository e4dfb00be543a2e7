"""Static analysis: shift the simulator's runtime invariants left.

The validation harness, the telemetry triangle test, and
``verify_degraded`` all catch determinism and safety violations *after*
they execute. This package catches the source patterns that cause them at
review time instead (DESIGN.md §12):

* :mod:`repro.analysis.determinism` -- wall clock, unseeded RNG,
  ``id()``-keyed ordering, and unordered-set iteration inside the
  simulation core, whose results must be pure functions of (code, spec);
* :mod:`repro.analysis.process_safety` -- statically unpicklable
  :class:`~repro.experiments.runner.CellSpec` fields, module-global
  writes reachable from worker-side entry points, mutable defaults --
  the patterns that silently diverge under ``--jobs N`` fan-out;
* :mod:`repro.analysis.telemetry_hygiene` -- metric objects minted
  outside the registry, trace sinks constructed outside the telemetry
  layer, wall-clock or host identity leaking into sink payloads;
* :mod:`repro.analysis.discipline` -- bare/silent exception handlers and
  non-taxonomy raises in the kernel/router hot paths;
* :mod:`repro.analysis.dataflow` -- whole-program forward taint
  propagation (DESIGN.md §16): wall-clock / RNG / ``id()`` / set-order
  values must not reach sim state, telemetry payloads, or experiment
  identity, even through assignments, returns, and cross-module calls;
* :mod:`repro.analysis.catalog` -- the static telemetry-key catalog:
  every metric/series key the tree can emit, linted for collisions,
  near-miss typos, undocumented keys, and catalog staleness.

Run it as ``repro lint`` or ``python -m repro.analysis``. Findings are
suppressed per line with ``# repro: allow[rule-id] -- justification``;
the justification is mandatory, an empty one is itself a finding.
Project-wide findings ratchet through the shrink-only
``lint-baseline.txt`` (:mod:`repro.analysis.baseline`), mirroring the
``typegate`` mypy baseline.
"""

from repro.analysis.core import (
    AnalysisError,
    Finding,
    ModuleInfo,
    ProjectIndex,
    ProjectRule,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
    build_index,
    iter_python_files,
    module_name_for,
    parse_suppressions,
    render_findings,
    rule_by_id,
)

# Importing the rule modules registers their rules with the registry.
from repro.analysis import catalog as _catalog  # noqa: F401
from repro.analysis import dataflow as _dataflow  # noqa: F401
from repro.analysis import determinism as _determinism  # noqa: F401
from repro.analysis import discipline as _discipline  # noqa: F401
from repro.analysis import process_safety as _process_safety  # noqa: F401
from repro.analysis import telemetry_hygiene as _telemetry_hygiene  # noqa: F401

__all__ = [
    "AnalysisError",
    "Finding",
    "ModuleInfo",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "build_index",
    "iter_python_files",
    "module_name_for",
    "parse_suppressions",
    "render_findings",
    "rule_by_id",
]
