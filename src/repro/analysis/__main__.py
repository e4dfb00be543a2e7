"""``python -m repro.analysis`` -- the standalone analyzer entry point.

Exit status: 0 with no findings above the lint baseline (and a passing
type gate when ``--types`` is given), 1 otherwise. ``repro lint`` is
the same engine behind the package CLI.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Sequence

from repro.analysis import all_rules, analyze_paths, build_index, render_findings
from repro.analysis.baseline import BASELINE_NAME, check_baseline
from repro.analysis.catalog import generate_catalog_source
from repro.analysis.sarif import render_sarif
from repro.analysis.typegate import check_typegate

#: Where the generated telemetry catalog lives, relative to the root.
CATALOG_PATH = "src/repro/telemetry/catalog.py"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism, process-safety, dataflow-taint, and telemetry-"
            "catalog static analysis for the repro tree (see DESIGN.md "
            "§12 and §16)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="finding output format (default: text)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help=f"judge findings against a shrink-only {BASELINE_NAME} "
             "ratchet instead of failing on any finding",
    )
    parser.add_argument(
        "--update-lint-baseline", action="store_true",
        help="rewrite the lint baseline from this run's findings "
             f"(default file: {BASELINE_NAME})",
    )
    parser.add_argument(
        "--write-catalog", action="store_true",
        help=f"regenerate {CATALOG_PATH} from the analyzed tree and exit",
    )
    parser.add_argument(
        "--types", action="store_true",
        help="also run the mypy --strict typed-core gate with the "
             "ratcheted baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="with --types: rewrite mypy-baseline.txt from this run",
    )
    return parser


def list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id:24s} [{rule.family}] {rule.summary}")
    return "\n".join(lines)


def write_catalog(paths: Sequence[str], out_path: str = CATALOG_PATH) -> str:
    """Regenerate the telemetry catalog module; returns the path."""
    index, _, _ = build_index(paths)
    pathlib.Path(out_path).write_text(
        generate_catalog_source(index), encoding="utf-8"
    )
    return out_path


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    if args.write_catalog:
        out_path = write_catalog(args.paths)
        print(f"wrote {out_path}")
        return 0
    findings = analyze_paths(args.paths)
    status = 0
    baseline_path = args.baseline
    if args.update_lint_baseline and baseline_path is None:
        baseline_path = BASELINE_NAME
    if baseline_path is not None:
        report = check_baseline(
            findings, baseline_path, update=args.update_lint_baseline
        )
        visible = report.offenders
        if not report.ok or report.stale:
            status = 1
        if args.format == "text":
            print(report.render())
        elif args.format == "json":
            print(json.dumps([f.payload() for f in visible],
                             indent=2, sort_keys=True))
        else:
            print(render_sarif(visible), end="")
    else:
        if args.format == "json":
            print(json.dumps([finding.payload() for finding in findings],
                             indent=2, sort_keys=True))
        elif args.format == "sarif":
            print(render_sarif(findings), end="")
        else:
            print(render_findings(findings))
        if findings:
            status = 1
    if args.types or args.update_baseline:
        report = check_typegate(update_baseline=args.update_baseline)
        print(report.render(), file=sys.stderr)
        if not report.ok:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
