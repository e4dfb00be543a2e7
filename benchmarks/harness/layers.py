"""Layer timing from outside the program: self time, call counts, spans.

The harness times each layer of the simulator through the public methods
listed in :data:`LAYERS`. :func:`installed` replaces each one on its class
(or module) with a wrapper for the duration of a ``with`` block and puts
the original back on exit, so an untraced run executes the plain methods
and pays nothing.

Each wrapper keeps a stack of child-time accumulators. When a call
returns, its duration is added to its caller's accumulator, and its self
time is its duration minus the time its own wrapped callees took. A
layer's self time is therefore the time spent in that layer and not in
any other wrapped layer below it.

Spans are coarse (workload, pass, cell), kept in memory and written at the
end as Chrome ``trace_event`` JSON, which ``chrome://tracing`` and
Perfetto load.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import pathlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.perf.profiler import PHASE_METHODS


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module.owner.attr`` (owner None = module)."""

    layer: str
    module: str
    owner: str | None
    attr: str
    #: Name of the per-layer metric that reports this target's call count
    #: (None when the count is not reported).
    count: str | None = None


def _noc_targets(core: str, cls: str) -> tuple[Target, ...]:
    module = "repro.noc.network" if core == "object" else "repro.noc.arraycore"
    phases = tuple(
        Target(f"noc.{core}.{phase}", module, cls, method)
        for phase, method in PHASE_METHODS.items()
    )
    return phases + (
        Target(f"noc.{core}.step", module, cls, "step", f"noc.{core}.steps"),
    )


#: Every wrapped entry point, grouped by the repro package it belongs to.
LAYERS: tuple[Target, ...] = (
    Target("sim.resource.acquire", "repro.sim.resource", "Resource", "acquire",
           "sim.resource.acquires"),
    Target("core.geometry.traverse", "repro.core.geometry", "CacheGeometry",
           "traverse", "core.geometry.traversals"),
    Target("core.geometry.multicast", "repro.core.geometry", "CacheGeometry",
           "multicast_column", "core.geometry.multicasts"),
    Target("core.flows.execute", "repro.core.flows", "TransactionEngine",
           "execute", "core.flows.txns"),
    Target("cache.access", "repro.cache.array", "CacheArray", "access",
           "cache.accesses"),
    Target("workloads.generate", "repro.workloads.generator", "TraceGenerator",
           "generate_with_warmup", "workloads.traces"),
    Target("experiments.cache_put", "repro.experiments.cache", "ResultCache",
           "put"),
    Target("telemetry.snapshot", "repro.telemetry.registry", "MetricsRegistry",
           "snapshot"),
    Target("telemetry.merge", "repro.telemetry", None, "merge_run"),
    Target("telemetry.publish", "repro.stream.service", "StreamService",
           "publish_metrics"),
    Target("stream.arrivals", "repro.stream.engine", None, "generate_arrivals"),
    Target("stream.service", "repro.stream.service", "StreamService", "run"),
    *_noc_targets("object", "Network"),
    *_noc_targets("array", "ArrayNetwork"),
)


class Tracer:
    """Per-layer self time and call counts, plus coarse spans."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        #: Child-time accumulators of the open wrapped calls; the bottom
        #: entry collects time spent outside every wrapped layer.
        self._stack: list[float] = [0.0]
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* wrapped so that its calls are charged to *layer*."""
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[layer] += 1

        return wrapper

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self times and call counts so far; both start again from zero."""
        taken = dict(self.self_s), dict(self.calls)
        self.self_s.clear()
        self.calls.clear()
        return taken

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None,
             **args: Any) -> Iterator[int]:
        """Record a complete event around the block; yields its span id."""
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self.spans.append({
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - self._origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, **args},
            })

    def write_chrome_trace(self, path: pathlib.Path) -> None:
        path.write_text(
            json.dumps({"traceEvents": self.spans, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )


def _owner(target: Target) -> Any:
    module = importlib.import_module(target.module)
    return module if target.owner is None else getattr(module, target.owner)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every target in :data:`LAYERS` for the block, then restore it."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for target in LAYERS:
            owner = _owner(target)
            original = vars(owner)[target.attr]
            saved.append((owner, target.attr, original))
            setattr(owner, target.attr, tracer.wrap(target.layer, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
