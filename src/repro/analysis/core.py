"""Analyzer framework: findings, rules, suppressions, and the file walk.

A :class:`Rule` inspects one parsed module (:class:`ModuleInfo`) and
yields :class:`Finding` objects. Rules register themselves into a global
registry at import time via :func:`register`; :func:`analyze_paths` walks
a file tree, parses each module once, runs every (selected) rule over it,
and filters findings through the suppression comments.

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
from typing import Callable, Iterable, Iterator, Sequence

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

    def payload(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


#: Packages whose results must be pure functions of (code, spec): the
#: simulation core. Determinism and exception-discipline rules key off it.
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
    """One parsed module plus the lookup tables rules share."""

    path: str
    module: str | None
    tree: ast.Module
    source: str
    #: Local name -> fully-qualified dotted origin, from import statements.
    imports: dict[str, str] = field(default_factory=dict)
    _parents: dict[int, ast.AST] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.imports = _import_table(self.tree, self.module)
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of *node* (None for the module root)."""
        return self._parents.get(id(node))

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
                if alias.asname is None and "." in alias.name:
                    # ``import a.b`` binds ``a``; record the root package.
                    table[alias.name.split(".")[0]] = alias.name.split(".")[0]
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


@dataclass
class ProjectIndex:
    """Every parsed module of one analysis run, plus shared context.

    Per-module rules see one :class:`ModuleInfo` at a time; project rules
    (taint flows across call edges, telemetry-key catalogs) see the whole
    index. ``design_text`` carries the DESIGN.md
    schema tables when the run is anchored in a repo checkout; it is None
    for synthetic single-module runs (fixtures, fuzzer cases), which
    disables the documentation-coverage rule there.
    """

    modules: tuple[ModuleInfo, ...]
    design_text: str | None = None

    def __post_init__(self) -> None:
        self._by_module: dict[str, ModuleInfo] = {
            info.module: info for info in self.modules if info.module is not None
        }

    def module(self, name: str) -> ModuleInfo | None:
        """The parsed module registered under dotted *name*, if any."""
        return self._by_module.get(name)

    def in_scope(self, prefixes: Sequence[str]) -> Iterator[ModuleInfo]:
        """Modules whose dotted name falls under any of *prefixes*."""
        for info in self.modules:
            if in_scope(info.module, prefixes):
                yield info


class Rule:
    """Base class: one named check over one module."""

    #: Stable kebab-case identifier used in output and suppressions.
    id: str = ""
    #: Rule family (``determinism`` | ``process-safety`` | ``telemetry`` |
    #: ``exceptions`` | ``dataflow`` | ``catalog``) -- the DESIGN.md
    #: §12/§16 grouping.
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


class ProjectRule(Rule):
    """A rule that inspects the whole :class:`ProjectIndex` at once.

    Project rules run after every module has been parsed; their findings
    still anchor to concrete file/line locations so the suppression
    machinery applies unchanged.
    """

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(
        self, info: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return self.finding(info, node, message)


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
    path: str,
    source: str,
    module: str | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Run *rules* (default: all) over one module's source text.

    Project rules see a one-module index, so single-module callers
    (fixtures, the fuzzer) exercise the dataflow families too.
    Suppressed findings are dropped; malformed suppressions are reported
    as ``bad-suppression`` findings. A syntax error yields a single
    ``parse-error`` finding rather than raising.
    """
    selected = tuple(rules) if rules is not None else all_rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(path=path, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                    rule="parse-error", message=f"syntax error: {exc.msg}")
        ]
    info = ModuleInfo(path=path, module=module, tree=tree, source=source)
    index = ProjectIndex(modules=(info,))
    suppressions = parse_suppressions(path, source)
    findings: list[Finding] = list(suppressions.problems)
    for rule in selected:
        emitted = (
            rule.check_project(index)
            if isinstance(rule, ProjectRule)
            else rule.check(info)
        )
        for finding in emitted:
            if not suppressions.allows(finding):
                findings.append(finding)
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


def find_design_text(paths: Iterable[str | pathlib.Path]) -> str | None:
    """DESIGN.md contents found by walking up from the analyzed paths."""
    for raw in paths:
        probe = pathlib.Path(raw).resolve()
        for ancestor in [probe, *probe.parents]:
            candidate = ancestor / "DESIGN.md"
            if candidate.is_file():
                return candidate.read_text(encoding="utf-8")
    return None


def build_index(
    paths: Iterable[str | pathlib.Path],
    progress: Callable[[str], None] | None = None,
) -> tuple[ProjectIndex, list[Finding], dict[str, Suppressions]]:
    """Parse every python file under *paths* exactly once.

    Returns the project index, parse-error findings for unparseable
    files, and the per-path suppression tables used to filter both the
    per-module and the project-rule passes.
    """
    path_list = list(paths)
    modules: list[ModuleInfo] = []
    parse_errors: list[Finding] = []
    suppressions: dict[str, Suppressions] = {}
    for file_path in iter_python_files(path_list):
        if progress is not None:
            progress(str(file_path))
        source = file_path.read_text(encoding="utf-8")
        path = str(file_path)
        suppressions[path] = parse_suppressions(path, source)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            parse_errors.append(
                Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1, rule="parse-error",
                        message=f"syntax error: {exc.msg}")
            )
            continue
        modules.append(
            ModuleInfo(path=path, module=module_name_for(file_path),
                       tree=tree, source=source)
        )
    index = ProjectIndex(
        modules=tuple(modules), design_text=find_design_text(path_list)
    )
    return index, parse_errors, suppressions


def analyze_paths(
    paths: Iterable[str | pathlib.Path],
    rules: Sequence[Rule] | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[Finding]:
    """Analyze every python file under *paths*; findings sorted by location.

    All modules are parsed into one :class:`ProjectIndex` first, so
    per-module rules and whole-program rules share a single parse pass
    and one suppression table per file.
    """
    selected = tuple(rules) if rules is not None else all_rules()
    index, findings, suppressions = build_index(paths, progress=progress)
    for table in suppressions.values():
        findings.extend(table.problems)

    def keep(finding: Finding) -> bool:
        table = suppressions.get(finding.path)
        return table is None or not table.allows(finding)

    for rule in selected:
        if isinstance(rule, ProjectRule):
            findings.extend(f for f in rule.check_project(index) if keep(f))
        else:
            for info in index.modules:
                findings.extend(f for f in rule.check(info) if keep(f))
    return sorted(findings)


def render_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a verdict line."""
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"repro lint: {len(findings)} {noun}")
    return "\n".join(lines)
