"""Fault-rate sweep: availability, goodput, and latency degradation.

Not a paper artifact -- a resilience extension (DESIGN.md §11).
:func:`repro.faults.campaign.run_campaign` runs the sweep through the
standard experiment engine; this module renders one curve row per
(design, scheme, rate): how much fault pressure the fabric absorbs
through degraded-mode reroutes and end-to-end retries before capacity
truncation and retry stalls show up as latency degradation.
"""

from __future__ import annotations

from repro.experiments.report import format_table
from repro.faults.campaign import CampaignResult


def render(result: CampaignResult) -> str:
    rows = []
    for point in result.points:
        rows.append(
            [
                point.design,
                point.scheme,
                f"{point.rate:g}",
                point.accesses,
                f"{point.availability:.1%}",
                f"{point.goodput:.2f}",
                f"{point.average_latency:.1f}",
                f"x{point.latency_degradation:.2f}",
                point.faults_injected,
                point.rerouted_packets,
                point.retries,
                point.exhausted_retries,
            ]
        )
    table = format_table(
        [
            "design",
            "scheme",
            "rate",
            "accesses",
            "avail",
            "goodput/kcyc",
            "avg lat",
            "lat degr",
            "faults",
            "rerouted",
            "retries",
            "exhausted",
        ],
        rows,
        title=(
            f"Fault sweep: benchmark {result.config.benchmark}, "
            f"fault seed {result.config.fault_seed}"
        ),
    )
    note = (
        "availability = accesses completing within the retry budget; "
        "latency degradation is vs the same (design, scheme) at rate 0"
    )
    return f"{table}\n\n{note}"
