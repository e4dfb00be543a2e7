"""Fault modeling and resilience at the transaction level (DESIGN.md §11).

Seeded fault plans (link cuts, transient message loss) are
timed by a degraded cache geometry: degraded routing keeps surviving
traffic XYX-legal, columns shrink to their live prefixes, and lost
traversals retry with bounded backoff; campaigns sweep fault rate
against scheme and topology through the standard experiment runner.
"""

from repro.faults.campaign import (
    CampaignConfig,
    CampaignPoint,
    CampaignResult,
    run_campaign,
)
from repro.faults.models import (
    FaultPlan,
    LinkFault,
    TransientFaults,
    protected_nodes,
)
from repro.faults.recovery import (
    DegradedCacheGeometry,
    TransactionFaultStats,
    truncate_columns,
)
from repro.faults.reroute import (
    DegradedRouting,
    alive_nodes,
    coreachable_nodes,
    reachable_nodes,
    verify_degraded,
)

__all__ = [
    "CampaignConfig",
    "CampaignPoint",
    "CampaignResult",
    "DegradedCacheGeometry",
    "DegradedRouting",
    "FaultPlan",
    "LinkFault",
    "TransactionFaultStats",
    "TransientFaults",
    "alive_nodes",
    "coreachable_nodes",
    "protected_nodes",
    "reachable_nodes",
    "run_campaign",
    "truncate_columns",
    "verify_degraded",
]
