"""The telemetry key schema: every metric and series key a run can emit.

``*`` is a wildcard for a dynamic fragment (a node, link, port, tenant
or VC identity). Edit this table by hand when an emit site is added,
renamed or removed. ``tests/telemetry/test_catalog_runtime.py`` runs
cells on every shipped path and checks both directions: each emitted
key is covered with its kind, and each pattern matches an emitted key.
``repro report --check-schema`` diffs a saved snapshot against it, and
the registry itself raises ``TelemetryError`` when one key is used with
two kinds.
"""

from __future__ import annotations

import re
from typing import Iterable

#: key pattern -> metric kinds registered under it.
CATALOG: dict[str, tuple[str, ...]] = {
    "cache.bank.busy_cycles": ("counter",),
    "cache.bank.grants": ("counter",),
    "cache.bank.wait_cycles": ("counter",),
    "cache.bankset.boundary_moves": ("counter",),
    "cache.bankset.eviction_chain_depth": ("histogram",),
    "cache.bankset.hits": ("counter",),
    "cache.bankset.hits_mru": ("counter",),
    "cache.bankset.misses": ("counter",),
    "cache.bankset.writebacks": ("counter",),
    "cache.memory.reads": ("counter",),
    "cache.memory.writebacks": ("counter",),
    "cache.partial_tags.early_misses": ("counter",),
    "cache.replacement.dirty_evictions": ("counter",),
    "cache.replacement.fills": ("counter",),
    "cache.series.accesses": ("series",),
    "cache.series.bank_cycles": ("series",),
    "cache.series.hits": ("series",),
    "cache.series.latency": ("series",),
    "cache.series.memory_cycles": ("series",),
    "cache.series.network_cycles": ("series",),
    "cache.span.*": ("histogram",),
    "cache.txn.degraded_accesses": ("counter",),
    "faults.exhausted_retries": ("counter",),
    "faults.injected": ("counter",),
    "faults.recovery_latency": ("histogram",),
    "faults.rerouted_packets": ("counter",),
    "faults.retries": ("counter",),
    "noc.buffer.max_occupancy": ("gauge",),
    "noc.hub.issue_queue_depth": ("gauge",),
    "noc.inject_queue.max_depth.*": ("gauge",),
    "noc.link.busy_cycles.*->*": ("counter",),
    "noc.link.flits.*->*": ("counter",),
    "noc.link.grants.*->*": ("counter",),
    "noc.link.wait_cycles.*->*": ("counter",),
    "noc.network.cycles": ("counter",),
    "noc.network.flits_injected": ("counter",),
    "noc.network.max_latency": ("gauge",),
    "noc.network.packets_delivered": ("counter",),
    "noc.network.packets_injected": ("counter",),
    "noc.reroute.detour_hops": ("counter",),
    "noc.router.buffer_bypass_hits": ("counter",),
    "noc.router.channel_busy_cycles": ("counter",),
    "noc.router.flits_ejected": ("counter",),
    "noc.router.flits_forwarded": ("counter",),
    "noc.router.multicast_replica_blocked_cycles": ("counter",),
    "noc.router.replication_blocked.*": ("counter",),
    "noc.router.replications": ("counter",),
    "noc.router.speculative_switch_wins": ("counter",),
    "noc.router.switch_conflicts": ("counter",),
    "noc.router.vc_alloc_failures": ("counter",),
    "noc.router.vc_alloc_wait_cycles": ("counter",),
    "noc.series.flits_ejected": ("series",),
    "noc.series.flits_forwarded": ("series",),
    "noc.series.flits_injected": ("series",),
    "noc.series.latency": ("series",),
    "noc.series.packets_delivered": ("series",),
    "noc.spike.queue_wait_cycles": ("counter",),
    "noc.spike.queue_waits": ("counter",),
    "noc.traversal.hop_cycles": ("counter",),
    "noc.traversal.queue_cycles": ("counter",),
    "noc.traversal.serialization_cycles": ("counter",),
    "noc.vc.credit_stall_cycles.*->*.vc*": ("counter",),
    "noc.vc.max_occupancy.*.*.vc*": ("gauge",),
    "stream.admitted": ("counter",),
    "stream.completed": ("counter",),
    "stream.offered": ("counter",),
    "stream.queue.high_water": ("gauge",),
    "stream.rejected.*": ("counter",),
    "stream.series.admitted": ("series",),
    "stream.series.completed": ("series",),
    "stream.series.latency": ("series",),
    "stream.series.offered": ("series",),
    "stream.series.queue_depth": ("series",),
    "stream.series.rejected": ("series",),
    "stream.series.tenant.*.completed": ("series",),
    "stream.series.tenant.*.latency": ("series",),
    "stream.series.tenant.*.offered": ("series",),
    "stream.series.tenant.*.rejected": ("series",),
    "stream.tenant.*.*": ("counter",),
}


def _pattern_regex(pattern: str) -> "re.Pattern[str]":
    parts = [re.escape(part) for part in pattern.split("*")]
    return re.compile("^" + "(.+?)".join(parts) + "$")


_WILDCARDS: list[tuple["re.Pattern[str]", str]] | None = None


def covers(key: str) -> tuple[str, ...] | None:
    """Kinds of the catalog pattern covering *key*, or None."""
    exact = CATALOG.get(key)
    if exact is not None:
        return exact
    global _WILDCARDS
    if _WILDCARDS is None:
        _WILDCARDS = [
            (_pattern_regex(pattern), pattern)
            for pattern in CATALOG
            if "*" in pattern
        ]
    for regex, pattern in _WILDCARDS:
        if regex.match(key):
            return CATALOG[pattern]
    return None


def unknown_keys(snapshot: dict[str, object]) -> list[str]:
    """Snapshot keys not covered by any catalog pattern, sorted."""
    return sorted(key for key in snapshot if covers(key) is None)


def unused_patterns(keys: Iterable[str]) -> list[str]:
    """Catalog patterns that match none of *keys*, sorted."""
    keys = list(keys)
    return sorted(
        pattern
        for pattern in CATALOG
        if not any(_pattern_regex(pattern).match(key) for key in keys)
    )
