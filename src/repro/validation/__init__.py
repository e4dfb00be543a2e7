"""Validation harness: invariant checkers, differential oracle, fuzzer.

Three layers of defense against silently-wrong simulation:

* :mod:`repro.validation.invariants` -- checkers installed on a *live*
  network / cache / transaction engine that raise
  :class:`~repro.errors.ValidationError` at the cycle an invariant breaks
  (flit and credit conservation, XYX channel ordering, multicast delivery
  completeness, block conservation, timing causality, stall watchdog);
* :mod:`repro.validation.differential` -- :func:`compare`, the one
  cross-core check: a flit workload or a stream cell run on the object
  core and the array core must agree on every observable; and the
  oracle, the same seeded trace through the experiment engine and
  through a checked in-process replay, diffed on hit/miss outcomes and
  final bank contents, plus a re-enactment of sampled transactions
  through the flit-level protocol (:mod:`repro.noc.protocol`), checked
  against the transaction-level model's hop assumptions;
* :mod:`repro.validation.fuzzer` -- ``repro validate --fuzz N`` samples
  random geometries, bank-set shapes, traffic, and traces, runs them
  under the checkers, and shrinks any failure to a minimal
  ready-to-paste pytest repro.
"""

from repro.validation.differential import (
    Divergence,
    FlitWorkload,
    LegResult,
    OracleReport,
    PacketSpec,
    StreamWorkload,
    compare,
    observe,
    run_oracle,
)
from repro.validation.fuzzer import (
    CacheCase,
    FuzzFailure,
    FuzzReport,
    NocCase,
    OracleCase,
    case_to_pytest,
    fuzz,
    generate_case,
    run_case,
    shrink_case,
    shrink_list,
)
from repro.validation.invariants import (
    BlockConservationChecker,
    ChannelOrderChecker,
    CreditConservationChecker,
    FlitConservationChecker,
    MulticastDeliveryChecker,
    NetworkChecker,
    TransactionTimingChecker,
    default_network_checkers,
    run_with_checkers,
)

__all__ = [
    "BlockConservationChecker",
    "CacheCase",
    "ChannelOrderChecker",
    "CreditConservationChecker",
    "Divergence",
    "FlitConservationChecker",
    "FlitWorkload",
    "FuzzFailure",
    "FuzzReport",
    "LegResult",
    "MulticastDeliveryChecker",
    "NetworkChecker",
    "NocCase",
    "OracleCase",
    "OracleReport",
    "PacketSpec",
    "StreamWorkload",
    "TransactionTimingChecker",
    "case_to_pytest",
    "compare",
    "default_network_checkers",
    "fuzz",
    "generate_case",
    "observe",
    "run_case",
    "run_oracle",
    "run_with_checkers",
    "shrink_case",
    "shrink_list",
]
