"""The twelve SPEC2000 benchmarks of Table 2.

The first block of fields reproduces Table 2 verbatim (instructions
executed, perfect-L2 IPC, L2 reads/writes, accesses per instruction). The
second block parameterizes the synthetic trace generator so the simulated
L2 lands in the regime the paper reports for each benchmark:

* ``footprint_blocks`` -- distinct 64 B blocks the benchmark touches,
  calibrated against the *set-sampled* effective cache of the default
  trace generator (16 columns x 8 indexes x 16 ways = 2048 blocks):
  ``art`` fits entirely, ``mcf`` overflows it roughly 2.5-fold;
* ``zipf_alpha`` -- reuse skew (higher = hotter head = more MRU-bank hits);
* ``stream_fraction`` -- share of accesses that touch never-seen blocks
  (compulsory-miss streams, dominant in ``applu``/``lucas``);
* ``band_fraction`` / ``band_blocks`` -- a medium-reuse *loop band*
  (uniformly re-referenced loop working sets): blocks re-touched every few
  same-set insertions, which true LRU retains but D-NUCA's one-step
  Promotion loses -- the structure behind the paper's "LRU generates 14 %
  higher cache hit rate than Promotion".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

MILLION = 1_000_000


@dataclass(frozen=True)
class BenchmarkProfile:
    """One Table-2 benchmark plus its synthetic-locality parameters."""

    name: str
    suite: str  # "FP" or "INT"
    instructions: int
    perfect_l2_ipc: float
    l2_reads: int
    l2_writes: int
    l2_access_per_instr: float
    footprint_blocks: int
    zipf_alpha: float
    stream_fraction: float
    band_fraction: float = 0.0
    band_blocks: int = 0

    def __post_init__(self) -> None:
        if self.suite not in ("FP", "INT"):
            raise ConfigurationError(f"suite must be FP or INT, got {self.suite!r}")
        if not 0.0 <= self.stream_fraction < 1.0:
            raise ConfigurationError("stream_fraction must be in [0, 1)")
        if not 0.0 <= self.band_fraction < 1.0:
            raise ConfigurationError("band_fraction must be in [0, 1)")
        if self.stream_fraction + self.band_fraction >= 1.0:
            raise ConfigurationError("stream + band fractions must leave zipf mass")
        if self.band_fraction > 0 and self.band_blocks < 1:
            raise ConfigurationError("band_fraction needs band_blocks >= 1")
        if self.footprint_blocks < 1:
            raise ConfigurationError("footprint_blocks must be positive")

    @property
    def l2_accesses(self) -> int:
        return self.l2_reads + self.l2_writes

    @property
    def write_fraction(self) -> float:
        return self.l2_writes / self.l2_accesses


def _p(name, suite, instr_m, ipc, reads_m, writes_m, api, fp, alpha, stream,
       band=0.0, band_blocks=0):
    return BenchmarkProfile(
        name=name,
        suite=suite,
        instructions=int(instr_m * MILLION),
        perfect_l2_ipc=ipc,
        l2_reads=int(reads_m * MILLION),
        l2_writes=int(writes_m * MILLION),
        l2_access_per_instr=api,
        footprint_blocks=fp,
        zipf_alpha=alpha,
        stream_fraction=stream,
        band_fraction=band,
        band_blocks=band_blocks,
    )


#: Table 2 of the paper, augmented with synthetic-locality parameters.
BENCHMARKS: tuple[BenchmarkProfile, ...] = (
    _p("applu", "FP", 500, 0.43, 9.444, 4.428, 0.028, 1_500, 0.85, 0.28,
       band=0.26, band_blocks=450),
    _p("apsi", "FP", 1000, 0.40, 12.375, 8.204, 0.021, 1_600, 0.95, 0.06,
       band=0.22, band_blocks=700),
    _p("art", "FP", 500, 0.40, 63.877, 13.578, 0.155, 800, 0.95, 0.00),
    _p("galgel", "FP", 2000, 0.43, 19.415, 4.137, 0.012, 1_100, 1.00, 0.03,
       band=0.15, band_blocks=600),
    _p("lucas", "FP", 1000, 0.44, 19.506, 13.226, 0.033, 1_700, 0.85, 0.24,
       band=0.26, band_blocks=500),
    _p("mesa", "FP", 2000, 0.40, 2.907, 2.656, 0.003, 400, 1.00, 0.01),
    _p("bzip2", "INT", 2000, 0.39, 16.301, 4.233, 0.010, 1_200, 0.95, 0.04,
       band=0.18, band_blocks=700),
    _p("gcc", "INT", 500, 0.29, 26.201, 14.827, 0.082, 2_000, 0.95, 0.06,
       band=0.28, band_blocks=650),
    _p("mcf", "INT", 250, 0.34, 29.500, 15.755, 0.181, 5_000, 0.80, 0.08,
       band=0.34, band_blocks=900),
    _p("parser", "INT", 2000, 0.38, 18.257, 6.915, 0.013, 1_300, 0.95, 0.04,
       band=0.18, band_blocks=700),
    _p("twolf", "INT", 1000, 0.38, 20.283, 7.653, 0.028, 900, 1.00, 0.02,
       band=0.15, band_blocks=600),
    _p("vpr", "INT", 1000, 0.41, 12.459, 5.024, 0.017, 850, 1.00, 0.02,
       band=0.12, band_blocks=500),
)

_BY_NAME = {profile.name: profile for profile in BENCHMARKS}

BENCHMARK_NAMES = tuple(_BY_NAME)


def profile_by_name(name: str) -> BenchmarkProfile:
    """Fetch a Table-2 benchmark profile by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; known: {', '.join(_BY_NAME)}"
        ) from None
