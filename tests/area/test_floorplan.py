"""Unit tests for floorplans and the Table-4 accounting."""

import pytest

from repro.area.floorplan import FloorPlanner, halo_layout
from repro.core.designs import design_a, design_e, design_f, design_spec
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def planner():
    return FloorPlanner()


@pytest.fixture(scope="module")
def areas(planner):
    return {key: planner.design_area(design_spec(key)) for key in "ABEF"}


class TestDesignAreas:
    def test_design_a_network_share(self, areas):
        # Paper: the network claims 52% of Design A's cache area.
        assert areas["A"].network_fraction == pytest.approx(0.52, abs=0.05)

    def test_design_a_l2_area(self, areas):
        assert areas["A"].l2_mm2 == pytest.approx(567.7, rel=0.10)

    def test_design_e_matches_paper_closely(self, areas):
        area = areas["E"]
        assert area.l2_mm2 == pytest.approx(402.3, rel=0.05)
        assert area.chip_mm2 == pytest.approx(1602, rel=0.05)

    def test_simplification_shrinks_network(self, areas):
        assert areas["B"].router_mm2 < areas["A"].router_mm2
        assert areas["B"].link_mm2 < areas["A"].link_mm2
        assert areas["B"].bank_mm2 == pytest.approx(areas["A"].bank_mm2)

    def test_f_is_smallest_l2(self, areas):
        assert areas["F"].l2_mm2 < min(
            areas[k].l2_mm2 for k in "ABE"
        )

    def test_interconnect_headline(self, areas):
        a = areas["A"]
        f = areas["F"]
        ratio = (f.router_mm2 + f.link_mm2) / (a.router_mm2 + a.link_mm2)
        assert ratio < 0.30  # paper: ~23%

    def test_fractions_sum_to_one(self, areas):
        for area in areas.values():
            assert area.bank_fraction + area.router_fraction \
                + area.link_fraction == pytest.approx(1.0)

    def test_chip_at_least_l2(self, planner):
        for key in "ABCDEF":
            area = planner.design_area(design_spec(key))
            assert area.chip_mm2 >= area.l2_mm2

    def test_as_row_shape(self, areas):
        row = areas["A"].as_row()
        assert set(row) == {
            "design", "bank %", "router %", "link %", "L2 area (mm2)",
            "chip area (mm2)",
        }


class TestHaloLayout:
    def test_segments_match_bank_order(self, planner):
        layout = halo_layout(design_f, planner)
        capacities = [seg.capacity_bytes for seg in layout["segments"]]
        assert capacities == [65536, 65536, 131072, 262144, 524288]

    def test_segments_contiguous(self, planner):
        layout = halo_layout(design_f, planner)
        segments = layout["segments"]
        for previous, current in zip(segments, segments[1:]):
            assert current.start_mm == pytest.approx(previous.end_mm)

    def test_die_side_geometry(self, planner):
        layout = halo_layout(design_e, planner)
        assert layout["die_side_mm"] == pytest.approx(
            2 * layout["spike_extent_mm"] + 4.0
        )

    def test_mesh_designs_rejected(self, planner):
        with pytest.raises(ConfigurationError):
            halo_layout(design_a, planner)

    def test_uniform_spike_longer_than_non_uniform(self, planner):
        assert planner.spike_extent(design_e) > planner.spike_extent(design_f)
