"""Open-loop streaming workload service (DESIGN.md §15).

Multi-tenant request streams -- Zipf content popularity over per-tenant
address spaces, stationary Poisson / bursty / diurnal arrival processes
-- served by the flit-level fabric through bounded admission queues,
with rolling SLO telemetry (per-window p50/p95/p99 latency, goodput,
rejection rate, availability) on the windowed ``Series`` registry.
"""

from repro.stream.arrivals import (
    ARRIVAL_PROCESSES,
    MIX_NAMES,
    TENANT_MIXES,
    Request,
    TenantSpec,
    generate_arrivals,
    generate_tenant_arrivals,
    tenant_mix,
)
from repro.stream.engine import (
    StreamResult,
    StreamSpec,
    stream_spec_for,
)
from repro.stream.service import (
    ADMISSION_POLICIES,
    REJECT_REASONS,
    StreamService,
    make_stream_series,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_PROCESSES",
    "MIX_NAMES",
    "REJECT_REASONS",
    "Request",
    "StreamResult",
    "StreamService",
    "StreamSpec",
    "TENANT_MIXES",
    "TenantSpec",
    "generate_arrivals",
    "generate_tenant_arrivals",
    "make_stream_series",
    "stream_spec_for",
    "tenant_mix",
]
