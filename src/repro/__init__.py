"""repro: reproduction of "A Domain-Specific On-Chip Network Design for
Large Scale Cache Systems" (Jin, Kim & Yum, HPCA 2007).

Public API highlights:

* :class:`repro.core.NetworkedCacheSystem` -- build a Table-3 design with a
  replacement scheme and run L2 access traces through it;
* :mod:`repro.workloads` -- the Table-2 benchmark profiles and synthetic
  trace generators;
* :mod:`repro.noc` -- the flit-level single-cycle multicast router and
  network fabric (meshes, simplified meshes, halos; XY/XYX routing);
* :mod:`repro.area` -- bank/router/link area and wire-delay models behind
  Table 4;
* :mod:`repro.experiments` -- drivers regenerating every evaluation figure
  and table of the paper.
"""

from repro.core.designs import DESIGN_NAMES, design_spec, make_design
from repro.core.flows import FIGURE8_SCHEMES, Scheme, make_scheme
from repro.core.system import NetworkedCacheSystem, RunResult
from repro.workloads import BENCHMARKS, generate_trace, profile_by_name

__version__ = "1.0.0"

__all__ = [
    "NetworkedCacheSystem",
    "RunResult",
    "DESIGN_NAMES",
    "design_spec",
    "make_design",
    "Scheme",
    "make_scheme",
    "FIGURE8_SCHEMES",
    "BENCHMARKS",
    "profile_by_name",
    "generate_trace",
    "__version__",
]
