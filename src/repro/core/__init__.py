"""The paper's primary contribution: the co-designed networked cache.

* :mod:`repro.core.geometry` -- resource-aware path timing over a design's
  topology (channels, banks, spike queues as contended resources);
* :mod:`repro.core.flows` -- the transaction flows of Figures 2 and 3 for
  all five scheme combinations ({unicast, multicast} x {Promotion, LRU,
  Fast-LRU}), and the S-NUCA baseline's home-bank flow;
* :mod:`repro.core.designs` -- the six evaluated designs A-F (Table 3);
* :mod:`repro.core.system` -- :class:`NetworkedCacheSystem`, the end-to-end
  simulator a client drives with an access trace.
"""

from repro.core.designs import (
    DESIGN_NAMES,
    DesignSpec,
    design_a,
    design_b,
    design_c,
    design_d,
    design_e,
    design_f,
    make_design,
)
from repro.core.flows import AccessTiming, Scheme, TransactionEngine
from repro.core.geometry import CacheGeometry
from repro.core.system import NetworkedCacheSystem, RunResult

__all__ = [
    "CacheGeometry",
    "Scheme",
    "AccessTiming",
    "TransactionEngine",
    "DesignSpec",
    "DESIGN_NAMES",
    "design_a",
    "design_b",
    "design_c",
    "design_d",
    "design_e",
    "design_f",
    "make_design",
    "NetworkedCacheSystem",
    "RunResult",
]
