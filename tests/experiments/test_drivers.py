"""Smoke + shape tests for every figure/table driver (reduced scale)."""

import pytest

from repro.experiments import (
    fig2_hops,
    fig10_layout,
    figure7,
    figure8,
    figure9,
    headline,
    link_analysis,
    table1_params,
    table2_workloads,
    table3_designs,
    table4_area,
)


class TestFastDrivers:
    def test_table1(self):
        params = table1_params.run()
        assert "Table 1" in table1_params.render(params)
        for bank in params["banks"]:
            assert bank["model_wire_delay"] == bank["table1_wire_delay"]

    def test_table2(self, tiny_config):
        rows = table2_workloads.run(tiny_config)
        assert len(rows) == 12
        assert "art" in table2_workloads.render(rows)

    def test_table3(self):
        rows = table3_designs.run()
        assert all(row["capacity_mb"] == 16.0 for row in rows)
        assert "halo" in table3_designs.render(rows)

    def test_table4(self):
        areas = table4_area.run()
        assert table4_area.interconnect_ratio(areas) < 0.35
        assert "Table 4" in table4_area.render(areas)

    def test_fig2(self):
        results = fig2_hops.run()
        assert results["fast_lru"].total_hops < results["lru"].total_hops
        assert "21" in fig2_hops.render(results)
        # The hops are the channel grants of one hit, read after the
        # geometry settles its per-leg counts.
        lru, fast = results["lru"], results["fast_lru"]
        assert (lru.total_hops, lru.transaction_latency) == (24, 76)
        assert (fast.total_hops, fast.transaction_latency) == (14, 46)

    def test_link_analysis(self):
        rows = link_analysis.run((4, 8))
        assert rows[0].paper_removable == 4
        assert "Section 4" in link_analysis.render(rows)

    def test_fig10(self):
        results = fig10_layout.run()
        assert results["waste_ratio"] > 1
        assert "die side" in fig10_layout.render(results)


class TestSimulationDrivers:
    def test_figure7_network_dominates(self, tiny_config):
        rows = figure7.run(tiny_config)
        avg = figure7.average_shares(rows)
        assert avg["network"] > avg["bank"]
        assert avg["network"] > avg["memory"]
        assert "Figure 7" in figure7.render(rows)

    def test_figure8_fastlru_wins(self, tiny_config):
        results = figure8.run(tiny_config)
        ratios = figure8.summary(results)
        assert ratios["fastlru_vs_lru"] < 0.95
        assert ratios["mc_fastlru_vs_mc_promotion"] < 0.95
        assert "Figure 8" in figure8.render(results)

    def test_figure9_halo_wins(self, tiny_config):
        result = figure9.run(tiny_config)
        assert result.geomean_normalized("F") > 1.0
        assert result.geomean_normalized("A") == pytest.approx(1.0)
        assert "Figure 9" in figure9.render(result)

    def test_headline(self, tiny_config):
        result = headline.run(tiny_config)
        assert result.ipc_full_vs_baseline > 1.0
        assert result.interconnect_area_ratio < 0.35
        assert "Headline" in headline.render(result)
