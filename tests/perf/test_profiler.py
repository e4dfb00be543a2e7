"""The sim-phase wall-time profiler (repro.perf.profiler).

The contract under test: attaching wraps exactly the four shared phase
methods as instance attributes, detaching restores the plain class
methods (zero footprint when off), double-attach is refused, and the
driver attributes nonzero time to every phase on both cores.
"""

import pytest

from repro.noc import MeshTopology, MessageType, Network, Packet
from repro.perf import profiler


def _loaded_network():
    network = Network(MeshTopology(3, 3))
    network.inject(
        Packet(MessageType.READ_REQUEST, (0, 0), ((2, 2),))
    )
    return network


class TestAttachDetach:
    def test_attach_profiles_and_detach_restores(self):
        network = _loaded_network()
        profile = profiler.attach(network)
        network.run_until_drained(max_cycles=1_000)
        assert profiler.detach(network) is profile
        # Zero footprint when off: no instance attrs shadow the class.
        for name in profiler.PHASE_METHODS.values():
            assert name not in vars(network)
        assert not hasattr(network, "_phase_profile")
        assert profile.core == "object"
        assert profile.total() > 0.0
        assert all(profile.calls[phase] > 0 for phase in profiler.PHASES)

    def test_unprofiled_network_has_no_wrappers(self):
        network = _loaded_network()
        for name in profiler.PHASE_METHODS.values():
            assert name not in vars(network)

    def test_double_attach_raises(self):
        network = _loaded_network()
        profiler.attach(network)
        with pytest.raises(RuntimeError, match="already"):
            profiler.attach(network)

    def test_detach_without_attach_raises(self):
        with pytest.raises(RuntimeError, match="no phase profiler"):
            profiler.detach(_loaded_network())

    def test_profiled_run_matches_unprofiled(self):
        """Wrapping must observe, never perturb, the simulation."""
        plain = _loaded_network()
        plain.run_until_drained(max_cycles=1_000)
        profiled = _loaded_network()
        profiler.attach(profiled)
        profiled.run_until_drained(max_cycles=1_000)
        profiler.detach(profiled)
        def digest(network):
            # Packet ids are process-global, so compare id-free fields.
            return (
                network.stats.cycles,
                [
                    (d.destination, d.injected_at, d.delivered_at, d.hops)
                    for d in network.stats.deliveries
                ],
            )

        assert digest(profiled) == digest(plain)


class TestProfileShape:
    def test_fractions_sum_to_one_and_merge_adds(self):
        profile = profiler.PhaseProfile("object")
        profile.seconds["switch"] = 3.0
        profile.seconds["inject"] = 1.0
        profile.calls["switch"] = 10
        fractions = profile.fractions()
        assert fractions["switch"] == 0.75
        assert sum(fractions.values()) == pytest.approx(1.0)
        other = profiler.PhaseProfile("object")
        other.seconds["switch"] = 1.0
        other.calls["switch"] = 2
        profile.merge(other)
        assert profile.seconds["switch"] == 4.0
        assert profile.calls["switch"] == 12

    def test_empty_profile_renders_without_dividing_by_zero(self):
        profile = profiler.PhaseProfile("array")
        assert profile.fractions() == {phase: 0.0 for phase in profiler.PHASES}
        assert "array core" in profile.render()

    def test_render_lists_every_phase(self):
        text = profiler.profile_load("object", mesh_size=3, cycles=40).render()
        assert "phase profile (object core" in text
        for phase in profiler.PHASES:
            assert phase in text


class TestArrayCore:
    def test_profile_load_covers_the_array_core(self):
        profile = profiler.profile_load("array", mesh_size=3, cycles=40)
        assert profile.core == "array"
        assert profile.total() > 0.0
        assert all(profile.calls[phase] > 0 for phase in profiler.PHASES)
