"""Wall-time sim-phase profiler for the flit cores.

Attributes wall-clock seconds to the four cycle phases both flit cores
share -- ``arrivals`` (link traversal landing), ``inject`` (source
queue -> VC), ``replication`` (multicast head splitting, the router's
route/VC-allocation stage), and ``switch`` (crossbar arbitration +
forwarding) -- so a slow drain can be blamed on a stage, and the object
and array cores can be compared stage by stage.

Zero overhead when off: :func:`attach` rebinds the network's phase
methods as *instance* attributes wrapping the originals with
``perf_counter`` bookkeeping. An unprofiled network carries no wrappers
at all -- its hot loops call the plain class methods -- so the
telemetry-off cost of this module is exactly zero. :func:`detach`
deletes the instance attributes, restoring the class methods.

Wall-times are host-dependent and inherently nondeterministic, so they
live in :class:`PhaseProfile` objects (and the ``RunResult.wall_s``
style side channel), never in the deterministic metrics registry --
the serial == ``--jobs N`` == cache-replay merge contract stays intact.
"""

from __future__ import annotations

import time
from typing import Any

#: Phase name -> the method both flit cores implement for it, in cycle
#: order. ``replication`` is the route/VC-allocation stage (multicast
#: head splitting); ``switch`` covers switch allocation + traversal.
PHASE_METHODS: dict[str, str] = {
    "arrivals": "_deliver_arrivals",
    "inject": "_inject_phase",
    "replication": "_replication_phase",
    "switch": "_switch_phase",
}

PHASES: tuple[str, ...] = tuple(PHASE_METHODS)


class PhaseProfile:
    """Accumulated wall-time and call counts per phase for one network."""

    __slots__ = ("core", "seconds", "calls")

    def __init__(self, core: str) -> None:
        self.core = core
        self.seconds: dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.calls: dict[str, int] = {phase: 0 for phase in PHASES}

    def total(self) -> float:
        return sum(self.seconds[phase] for phase in PHASES)

    def fractions(self) -> dict[str, float]:
        total = self.total()
        if total <= 0.0:
            return {phase: 0.0 for phase in PHASES}
        return {phase: self.seconds[phase] / total for phase in PHASES}

    def render(self) -> str:
        fractions = self.fractions()
        lines = [f"phase profile ({self.core} core, "
                 f"{self.total() * 1e3:.1f} ms attributed):"]
        for phase in PHASES:
            lines.append(
                f"  {phase:<12} {self.seconds[phase] * 1e3:9.2f} ms "
                f"({fractions[phase]:5.1%}, {self.calls[phase]} calls)"
            )
        return "\n".join(lines)


def _timed(original: Any, profile: PhaseProfile, phase: str) -> Any:
    perf = time.perf_counter
    seconds = profile.seconds
    calls = profile.calls

    def wrapper(*args: Any) -> Any:
        t0 = perf()
        try:
            return original(*args)
        finally:
            seconds[phase] += perf() - t0
            calls[phase] += 1

    return wrapper


def attach(network: Any) -> PhaseProfile:
    """Bind timing wrappers over *network*'s phase methods.

    The profile is labelled with the network class's ``core`` name.
    Idempotence guard: attaching twice would stack wrappers and
    double-count, so a second attach raises.
    """
    if getattr(network, "_phase_profile", None) is not None:
        raise RuntimeError("network already has a phase profiler attached")
    profile = PhaseProfile(type(network).core)
    for phase, name in PHASE_METHODS.items():
        setattr(network, name, _timed(getattr(network, name), profile, phase))
    network._phase_profile = profile
    return profile


def detach(network: Any) -> PhaseProfile:
    """Remove the wrappers, restoring the plain class methods."""
    profile = getattr(network, "_phase_profile", None)
    if profile is None:
        raise RuntimeError("network has no phase profiler attached")
    for name in PHASE_METHODS.values():
        delattr(network, name)
    del network._phase_profile
    return profile


def profile_load(
    core: str,
    mesh_size: int = 6,
    cycles: int = 300,
    seed: int = 1,
) -> PhaseProfile:
    """Run the standard uniform-random load through one core, profiled.

    The traffic of :func:`repro.experiments.noc_load.offer_uniform_load`
    at 0.3 packets per node per cycle; a fixed, comparable workload per
    core for ``repro validate --profile-phases``.
    """
    from repro.experiments.noc_load import offer_uniform_load
    from repro.noc import MeshTopology, make_network

    network = make_network(MeshTopology(mesh_size, mesh_size), core=core)
    profile = attach(network)
    offer_uniform_load(network, 0.3, cycles, seed)
    network.run_until_drained(max_cycles=cycles * 200)
    detach(network)
    return profile
