"""One-shot regeneration of every paper artifact into a single report.

``python -m repro report --out results.txt`` runs all tables and figures
(at a configurable scale) and writes one combined document -- the
"reproduce the paper with one command" entry point.
"""

from __future__ import annotations

import pathlib

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
from repro.core.designs import DESIGN_NAMES
from repro.core.flows import FIGURE8_SCHEMES
from repro.experiments.common import ExperimentConfig, run_systems

#: (section title, runner, renderer); runners taking a config get one.
_ARTIFACTS = (
    ("Table 1 - system parameters", lambda cfg: table1_params.run(),
     table1_params.render),
    ("Table 2 - benchmarks", table2_workloads.run, table2_workloads.render),
    ("Table 3 - network designs", lambda cfg: table3_designs.run(),
     table3_designs.render),
    ("Fig. 2 example - LRU vs Fast-LRU hops", lambda cfg: fig2_hops.run(),
     fig2_hops.render),
    ("Section 4 - link analysis", lambda cfg: link_analysis.run(),
     link_analysis.render),
    ("Figure 7 - latency distribution", figure7.run, figure7.render),
    ("Figure 8 - replacement schemes", figure8.run, figure8.render),
    ("Figure 9 - design space", figure9.run, figure9.render),
    ("Table 4 - area analysis", lambda cfg: table4_area.run(),
     table4_area.render),
    ("Figure 10 - halo floorplan", lambda cfg: fig10_layout.run(),
     fig10_layout.render),
    ("Headline claims", headline.run, headline.render),
)


def simulation_cells(config: ExperimentConfig) -> list[tuple[str, str, str]]:
    """Every (design, scheme, benchmark) cell the report will simulate.

    Fig. 7 (Unicast LRU on A) and the headline claims are subsets of the
    Fig. 8 x Fig. 9 grids, so this union is the report's complete
    simulation workload.
    """
    cells = [
        ("A", scheme, benchmark)
        for scheme in FIGURE8_SCHEMES
        for benchmark in config.benchmarks
    ]
    cells += [
        (design, "multicast+fast_lru", benchmark)
        for design in DESIGN_NAMES
        if design != "A"
        for benchmark in config.benchmarks
    ]
    return cells


def generate(config: ExperimentConfig | None = None,
             progress=None) -> str:
    """Run every artifact and return the combined report text.

    *progress* (optional) is called with each section title as it starts.
    """
    config = config or ExperimentConfig()
    sections = [
        "Reproduction report: 'A Domain-Specific On-Chip Network Design "
        "for Large Scale Cache Systems' (HPCA 2007)",
        f"scale: {config.measure} measured accesses per cell, "
        f"seed {config.seed}",
    ]
    # Evaluate the full simulation grid in one engine batch up front:
    # with --jobs > 1 the pool spans artifact boundaries, and the
    # per-artifact runners below then hit the engine memo.
    if progress is not None:
        progress("simulation sweep (all figure cells)")
    run_systems(simulation_cells(config), config)
    for title, runner, renderer in _ARTIFACTS:
        if progress is not None:
            progress(title)
        results = runner(config)
        banner = "#" * (len(title) + 4)
        sections.append(f"{banner}\n# {title} #\n{banner}\n\n{renderer(results)}")
    # No generation timestamp or duration: the report is an artifact of
    # (code, spec) and identical runs must produce byte-identical files
    # (wall cost is on stderr via the engine's batch summary instead).
    return "\n\n\n".join(sections)


def write(path: str | pathlib.Path,
          config: ExperimentConfig | None = None,
          progress=None) -> pathlib.Path:
    """Generate the report and write it to *path*."""
    path = pathlib.Path(path)
    path.write_text(generate(config, progress=progress) + "\n",
                    encoding="utf-8")
    return path
