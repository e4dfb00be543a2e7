"""Analyzer framework: findings, rules, suppressions, and the file walk.

A :class:`Rule` inspects one parsed module (:class:`ModuleInfo`) and
yields :class:`Finding` objects. Rules register themselves into a global
registry at import time via :func:`register`; :func:`analyze_paths` walks
a file tree, parses each module once, runs every rule over it, and
filters findings through the suppression comments.

Suppression syntax (checked, not free-form)::

    risky_line()  # repro: allow[rule-id] -- why this is a vetted false positive

applies to its own line; ``allow-file[rule-id]`` anywhere in the file
applies to the whole file. The justification after ``--`` is mandatory:
a suppression without one is reported as a ``bad-suppression`` finding,
so every exemption in the tree carries its own review trail. Unknown
rule ids in a directive are likewise findings -- a typo must not
silently disable nothing.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
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

    #: Stable kebab-case identifier used in output and suppressions.
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


# -- suppressions -------------------------------------------------------------

#: Matches ``repro: allow[ids]`` / ``repro: allow-file[ids]`` directives.
_DIRECTIVE = re.compile(
    r"#\s*repro:\s*(?P<kind>allow(?:-file)?)\s*"
    r"\[(?P<rules>[^\]]*)\]\s*(?:--\s*(?P<why>.*))?"
)
_ANY_DIRECTIVE = re.compile(r"#\s*repro\s*:")


@dataclass
class Suppressions:
    """Parsed ``repro: allow`` directives for one file."""

    #: line number -> rule ids allowed on that line.
    by_line: dict[int, set[str]] = field(default_factory=dict)
    #: rule ids allowed anywhere in the file.
    file_wide: set[str] = field(default_factory=set)
    #: malformed-directive findings (missing justification, unknown rule).
    problems: list[Finding] = field(default_factory=list)

    def allows(self, finding: Finding) -> bool:
        if finding.rule in self.file_wide:
            return True
        return finding.rule in self.by_line.get(finding.line, set())


def parse_suppressions(path: str, source: str) -> Suppressions:
    """Extract and validate every suppression directive in *source*."""
    out = Suppressions()

    def problem(line: int, message: str) -> None:
        out.problems.append(
            Finding(path=path, line=line, col=1,
                    rule="bad-suppression", message=message)
        )

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return out
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        comment = token.string
        if not _ANY_DIRECTIVE.search(comment):
            continue
        line = token.start[0]
        match = _DIRECTIVE.search(comment)
        if match is None:
            problem(line, f"unparseable repro directive: {comment.strip()!r}")
            continue
        rule_ids = [
            part.strip() for part in match.group("rules").split(",") if part.strip()
        ]
        why = (match.group("why") or "").strip()
        if not rule_ids:
            problem(line, "suppression names no rule ids")
            continue
        if not why:
            problem(
                line,
                f"suppression of {','.join(rule_ids)} has no justification "
                "(write `# repro: allow[rule] -- reason`)",
            )
            continue
        unknown = [rule_id for rule_id in rule_ids if rule_id not in _RULES]
        if unknown:
            problem(
                line,
                f"suppression names unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(_RULES))}",
            )
            continue
        if match.group("kind") == "allow-file":
            out.file_wide.update(rule_ids)
        else:
            out.by_line.setdefault(line, set()).update(rule_ids)
    return out


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

    Suppressed findings are dropped; malformed suppressions are reported
    as ``bad-suppression`` findings. A syntax error yields a single
    ``parse-error`` finding rather than raising.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(path=path, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                    rule="parse-error", message=f"syntax error: {exc.msg}")
        ]
    info = ModuleInfo(path=path, module=module, tree=tree)
    suppressions = parse_suppressions(path, source)
    findings = list(suppressions.problems)
    for rule in all_rules():
        findings.extend(
            finding for finding in rule.check(info)
            if not suppressions.allows(finding)
        )
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
