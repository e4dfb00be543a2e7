"""Analyzer framework: findings, rules, and the file walk.

A :class:`Rule` inspects one parsed module (:class:`ModuleInfo`) and
yields :class:`Finding` objects. Rules register themselves into a global
registry at import time via :func:`register`; :func:`analyze_paths` walks
a file tree, parses each module once and runs every rule over it. Every
finding is reported: there is no per-line or per-file exemption.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import ReproError


class AnalysisError(ReproError):
    """The static analyzer was configured or driven inconsistently."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


#: Packages whose results must be pure functions of (code, spec): the
#: simulation core. The clock and exception rules key off it.
SIM_SCOPE: tuple[str, ...] = (
    "repro.sim",
    "repro.noc",
    "repro.core",
    "repro.cache",
    "repro.faults",
)


def in_scope(module: str | None, prefixes: Sequence[str]) -> bool:
    """True when dotted *module* lives under any of *prefixes*."""
    if module is None:
        return False
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


@dataclass
class ModuleInfo:
    """One parsed module plus its import table."""

    path: str
    module: str | None
    tree: ast.Module
    #: Local name -> fully-qualified dotted origin, from import statements.
    imports: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.imports = _import_table(self.tree, self.module)

    def qualname(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted origin, or None.

        ``time.time`` under ``import time`` resolves to ``"time.time"``;
        ``perf_counter`` under ``from time import perf_counter`` to
        ``"time.perf_counter"``; a local name resolves to None.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.imports.get(node.id)
        if origin is None:
            return None
        return ".".join([origin, *reversed(parts)]) if parts else origin


def _import_table(tree: ast.Module, module: str | None) -> dict[str, str]:
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and module is not None:
                package = module.split(".")
                # level 1 = current package for __init__, else the parent.
                anchor = package[: len(package) - node.level]
                base = ".".join([*anchor, base] if base else anchor)
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return table


class Rule:
    """Base class: one named check over one module."""

    #: Stable kebab-case identifier used in output.
    id: str = ""
    #: Rule family (``determinism`` | ``process-safety`` | ``exceptions``),
    #: the DESIGN.md §12 grouping.
    family: str = ""
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, info: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=info.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


_RULES: dict[str, Rule] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and index a rule by its id."""
    rule = rule_class()
    if not rule.id or not rule.family or not rule.summary:
        raise AnalysisError(
            f"rule {rule_class.__name__} must define id, family, and summary"
        )
    if rule.id in _RULES:
        raise AnalysisError(f"duplicate rule id {rule.id!r}")
    _RULES[rule.id] = rule
    return rule_class


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, ordered by id."""
    return tuple(_RULES[rule_id] for rule_id in sorted(_RULES))


def rule_by_id(rule_id: str) -> Rule:
    try:
        return _RULES[rule_id]
    except KeyError:
        raise AnalysisError(
            f"unknown rule {rule_id!r}; known: {sorted(_RULES)}"
        ) from None


# -- driving ------------------------------------------------------------------


def module_name_for(path: pathlib.Path) -> str | None:
    """Dotted module name for *path*, keyed off a ``src/`` or package root."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    dotted = parts[parts.index("repro"):]
    if dotted[-1].endswith(".py"):
        dotted[-1] = dotted[-1][:-3]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def analyze_source(
    path: str, source: str, module: str | None = None
) -> list[Finding]:
    """Run every rule over one module's source text.

    A syntax error yields a single ``parse-error`` finding rather than
    raising.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(path=path, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                    rule="parse-error", message=f"syntax error: {exc.msg}")
        ]
    info = ModuleInfo(path=path, module=module, tree=tree)
    findings: list[Finding] = []
    for rule in all_rules():
        findings.extend(rule.check(info))
    return sorted(findings)


def iter_python_files(paths: Iterable[str | pathlib.Path]) -> Iterator[pathlib.Path]:
    """Every ``.py`` file under *paths*, deterministically ordered."""
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        else:
            raise AnalysisError(f"not a python file or directory: {path}")


def analyze_paths(paths: Iterable[str | pathlib.Path]) -> list[Finding]:
    """Analyze every python file under *paths*; findings sorted by location."""
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(analyze_source(
            str(file_path),
            file_path.read_text(encoding="utf-8"),
            module=module_name_for(file_path),
        ))
    return sorted(findings)


def render_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a verdict line."""
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"repro lint: {len(findings)} {noun}")
    return "\n".join(lines)
