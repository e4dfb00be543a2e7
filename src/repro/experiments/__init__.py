"""Experiment drivers regenerating every evaluation figure and table.

Each module exposes a ``run(config)`` returning structured results plus a
``render(results)`` producing the same rows/series the paper reports:

========================  ===========================================
Module                    Paper artifact
========================  ===========================================
``table1_params``         Table 1 (system parameters, derived checks)
``table2_workloads``      Table 2 (benchmark statistics)
``fig2_hops``             Fig. 2 example (21 vs 12 hops)
``link_analysis``         Section-4 link-count formulas
``figure7``               Fig. 7 (latency split, Unicast LRU)
``figure8``               Fig. 8 (a/b/c: five replacement schemes)
``table3_designs``        Table 3 (design list)
``figure9``               Fig. 9 (normalized IPC, designs A-F)
``table4_area``           Table 4 (area analysis)
``fig10_layout``          Fig. 10 (halo floorplan geometry)
``headline``              Abstract-level combined claims
========================  ===========================================
"""

from repro.experiments.common import ExperimentConfig, run_systems

__all__ = ["ExperimentConfig", "run_systems"]
