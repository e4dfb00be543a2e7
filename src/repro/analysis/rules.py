"""The lint rules: bug classes no tier-1 test catches (DESIGN.md §12).

A rule was deleted when a bug planted where it looks failed tier-1,
unless it had found a real bug in this tree; those bug classes have a
runtime check that fails instead: the hash-seed guard, the determinism
triangle, the goldens, the telemetry catalog test and the cross-core
differential. The rules here are the ones whose plants pass tier-1, the
two with recorded true positives, and the two whose target does not
exist in the tree yet (hash-order reductions, unstable numpy sorts).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    SIM_SCOPE,
    Finding,
    ModuleInfo,
    Rule,
    in_scope,
    register,
)

# -- determinism --------------------------------------------------------------

#: Time-of-day reads: never acceptable in ``repro`` source.
_WALLCLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Monotonic/process clocks: fine for wall-cost metadata in the
#: orchestration layer (``RunResult.wall_s`` is ``compare=False``), but
#: inside the simulation core the only clock is the simulated cycle.
_MONOTONIC = frozenset({
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
})


@register
class WallClockRule(Rule):
    id = "det-wallclock"
    family = "determinism"
    summary = (
        "no wall-clock reads: time-of-day anywhere in repro, any host "
        "clock inside the simulation core (sim/noc/core/cache/faults)"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        sim = in_scope(info.module, SIM_SCOPE)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = info.qualname(node.func)
            if origin in _WALLCLOCK:
                yield self.finding(
                    info, node,
                    f"{origin}() reads the wall clock; results and artifacts "
                    "must be functions of (code, spec) -- use sim time, or "
                    "the monotonic clock outside the simulation core",
                )
            elif sim and origin in _MONOTONIC:
                yield self.finding(
                    info, node,
                    f"{origin}() inside the simulation core; the only clock "
                    "here is the simulated cycle",
                )


def _is_set_expression(node: ast.AST, info: ModuleInfo) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return (
            node.func.id in ("set", "frozenset")
            and node.func.id not in info.imports
        )
    return False


@register
class UnorderedReduceRule(Rule):
    id = "det-unordered-reduce"
    family = "determinism"
    summary = (
        "no reductions over set expressions in the simulation core: "
        "sum()/math.fsum() accumulate in hash order, so float results "
        "(and any order-sensitive fold) vary with the hash seed"
    )

    _REDUCERS = ("sum",)
    _QUAL_REDUCERS = frozenset({"math.fsum", "numpy.sum", "numpy.prod"})

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if not in_scope(info.module, SIM_SCOPE):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            named_reducer = (
                isinstance(func, ast.Name)
                and func.id in self._REDUCERS
                and func.id not in info.imports
            )
            qual_reducer = info.qualname(func) in self._QUAL_REDUCERS
            if not named_reducer and not qual_reducer:
                continue
            if _is_set_expression(node.args[0], info):
                yield self.finding(
                    info, node,
                    "reducing a set expression accumulates in hash order; "
                    "reduce a sorted sequence (or a list/tuple built in a "
                    "deterministic order) instead",
                )


#: numpy sort entry points whose default algorithm (introsort) is
#: unstable: equal keys land in an algorithm-dependent order. A
#: bit-identical simulation core may only sort with an explicit
#: ``kind="stable"`` (or ``"mergesort"``, its alias) so every tie-break
#: is part of the spec, not of the sort implementation.
_NP_SORTS = frozenset({
    "numpy.sort",
    "numpy.argsort",
    "numpy.ma.sort",
    "numpy.ma.argsort",
})


@register
class NumpyUnstableSortRule(Rule):
    id = "det-np-unstable-sort"
    family = "determinism"
    summary = (
        "no unstable numpy sorts in the simulation core: np.sort / "
        "np.argsort (and the .argsort() method) default to introsort, "
        'whose tie order is implementation-defined -- pass kind="stable"'
    )

    _STABLE_KINDS = ("stable", "mergesort")

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if not in_scope(info.module, SIM_SCOPE):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = info.qualname(node.func)
            named = origin in _NP_SORTS
            # The .argsort() method form: the receiver's type is not
            # resolvable statically, but the name is numpy-specific
            # (list.sort is stable and has no argsort).
            method = (
                origin is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "argsort"
            )
            if (named or method) and not self._stable_kind(node):
                yield self.finding(
                    info, node,
                    "numpy's default sort kind is unstable, so equal keys "
                    "land in implementation-defined order; pass "
                    'kind="stable" (and make every tie-break explicit in '
                    "the key) or sort in plain Python",
                )

    def _stable_kind(self, node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "kind":
                value = keyword.value
                return (
                    isinstance(value, ast.Constant)
                    and value.value in self._STABLE_KINDS
                )
        return False


# -- process safety -----------------------------------------------------------


@register
class MutableDefaultRule(Rule):
    id = "proc-mutable-default"
    family = "process-safety"
    summary = (
        "no mutable default arguments (the shared default object leaks "
        "state across calls and across pickled closures)"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            arguments = node.args
            for default in [*arguments.defaults, *arguments.kw_defaults]:
                if default is None:
                    continue
                if self._is_mutable(default, info):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        info, default,
                        f"{name}() has a mutable default argument; default "
                        "to None (or a tuple/frozenset) and build the "
                        "mutable value inside the call",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST, info: ModuleInfo) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return (
                node.func.id in ("list", "dict", "set", "bytearray")
                and node.func.id not in info.imports
            )
        return False


# -- exceptions ---------------------------------------------------------------

_BROAD_CATCHES = frozenset({"Exception", "BaseException"})


def _handler_types(handler: ast.ExceptHandler) -> list[ast.expr]:
    if handler.type is None:
        return []
    if isinstance(handler.type, ast.Tuple):
        return list(handler.type.elts)
    return [handler.type]


def _is_silent(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing at all."""
    return all(
        isinstance(statement, ast.Pass)
        or (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
        )
        for statement in handler.body
    )


@register
class BareExceptRule(Rule):
    id = "exc-bare"
    family = "exceptions"
    summary = "no bare `except:` anywhere (it even swallows SystemExit)"

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    info, node,
                    "bare `except:` catches everything including "
                    "SystemExit and KeyboardInterrupt; name the exception "
                    "types you mean",
                )


@register
class SilentSwallowRule(Rule):
    id = "exc-silent"
    family = "exceptions"
    summary = (
        "no silent swallows: empty handler bodies for broad catches "
        "anywhere, for any catch inside the simulation core"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        sim = in_scope(info.module, SIM_SCOPE)
        for node in ast.walk(info.tree):
            if not (isinstance(node, ast.ExceptHandler) and _is_silent(node)):
                continue
            names = [
                name.id if isinstance(name, ast.Name) else "?"
                for name in _handler_types(node)
            ]
            broad = node.type is None or any(
                name in _BROAD_CATCHES for name in names
            )
            if broad or sim:
                caught = ", ".join(names) if names else "everything"
                yield self.finding(
                    info, node,
                    f"handler for {caught} swallows the exception without "
                    "acting on it; a dropped error in simulation code "
                    "surfaces later as silent corruption -- handle it, "
                    "count it, or let it propagate",
                )


@register
class BroadHotPathCatchRule(Rule):
    id = "exc-broad-hotpath"
    family = "exceptions"
    summary = (
        "no `except Exception` / `except BaseException` inside the "
        "simulation core; catch repro.errors taxonomy types"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if not in_scope(info.module, SIM_SCOPE):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            for name in _handler_types(node):
                if isinstance(name, ast.Name) and name.id in _BROAD_CATCHES:
                    yield self.finding(
                        info, node,
                        f"`except {name.id}` in the simulation core also "
                        "catches simulator bugs (SimulationError) it should "
                        "never recover from; catch the specific "
                        "repro.errors types instead",
                    )
