"""Benchmark profiles and the 12 workload mixes of Table 7.3.

Each :class:`BenchmarkProfile` summarizes the memory behaviour that
matters to this evaluation:

* ``base_ipc`` — IPC when memory never misses (bounded by the 2-wide
  core of Table 7.2);
* ``llc_mpki`` — LLC misses per kilo-instruction (memory intensity);
* ``read_fraction`` — demand reads vs writes reaching memory;
* ``spatial_locality`` — probability the next memory access continues a
  sequential run (this is what decides whether ARCC's paired 128B
  fetches act as useful prefetches or wasted bandwidth, Figure 7.3);
* ``mlp`` — memory-level parallelism (overlapping misses), which divides
  exposed stall time;
* ``footprint_pages`` — working-set size in 4 KB pages.

Values are calibrated to the published memory-intensity taxonomy of SPEC
CPU2000/2006 (e.g. mcf/lbm/milc/libquantum memory-bound; mesa/sjeng/
calculix compute-bound; libquantum/swim/lbm streaming with high spatial
locality; omnetpp/mcf/astar pointer-chasing with low locality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class BenchmarkProfile:
    """Memory behaviour of one SPEC benchmark."""

    name: str
    base_ipc: float
    llc_mpki: float
    read_fraction: float
    spatial_locality: float
    mlp: float
    footprint_pages: int = 512

    def __post_init__(self) -> None:
        if not 0 < self.base_ipc <= 2.0:
            raise ValueError("base_ipc must fit the 2-wide core")
        if not 0 <= self.spatial_locality < 1:
            raise ValueError("spatial_locality must be in [0, 1)")
        if not 0 < self.read_fraction <= 1:
            raise ValueError("read_fraction must be in (0, 1]")
        if self.mlp < 1:
            raise ValueError("mlp must be at least 1")


def _profile(
    name: str,
    ipc: float,
    mpki: float,
    reads: float,
    locality: float,
    mlp: float,
) -> Tuple[str, BenchmarkProfile]:
    return name, BenchmarkProfile(
        name=name,
        base_ipc=ipc,
        llc_mpki=mpki,
        read_fraction=reads,
        spatial_locality=locality,
        mlp=mlp,
    )


#: Per-benchmark memory-behaviour table (see module docstring for the
#: calibration rationale).
BENCHMARKS: Dict[str, BenchmarkProfile] = dict(
    [
        _profile("mesa", 1.6, 1.0, 0.75, 0.70, 1.5),
        _profile("leslie3d", 1.1, 15.0, 0.70, 0.70, 2.5),
        _profile("GemsFDTD", 1.0, 18.0, 0.70, 0.60, 2.0),
        _profile("fma3d", 1.3, 6.0, 0.70, 0.50, 2.0),
        _profile("omnetpp", 0.9, 15.0, 0.65, 0.15, 1.5),
        _profile("soplex", 1.0, 20.0, 0.75, 0.40, 2.0),
        _profile("apsi", 1.3, 8.0, 0.70, 0.60, 2.0),
        _profile("sphinx3", 1.1, 12.0, 0.85, 0.55, 2.0),
        _profile("calculix", 1.7, 1.5, 0.75, 0.60, 1.5),
        _profile("wupwise", 1.4, 5.0, 0.70, 0.60, 2.0),
        _profile("lucas", 1.2, 10.0, 0.65, 0.50, 2.0),
        _profile("gromacs", 1.6, 2.0, 0.70, 0.50, 1.5),
        _profile("swim", 1.0, 23.0, 0.60, 0.80, 3.0),
        _profile("milc", 0.9, 20.0, 0.70, 0.50, 2.0),
        _profile("sjeng", 1.5, 0.8, 0.75, 0.30, 1.2),
        _profile("facerec", 1.3, 7.0, 0.75, 0.60, 2.0),
        _profile("ammp", 1.2, 4.0, 0.70, 0.40, 1.5),
        _profile("mgrid", 1.1, 12.0, 0.70, 0.75, 2.5),
        _profile("applu", 1.1, 12.0, 0.65, 0.70, 2.5),
        _profile("mcf2006", 0.7, 30.0, 0.75, 0.20, 2.0),
        _profile("libquantum", 0.9, 25.0, 0.80, 0.90, 3.5),
        _profile("astar", 1.1, 8.0, 0.75, 0.20, 1.5),
        _profile("art110", 0.8, 30.0, 0.80, 0.30, 2.0),
        _profile("lbm", 0.9, 25.0, 0.55, 0.80, 3.5),
        _profile("h264ref", 1.5, 2.0, 0.70, 0.70, 1.5),
    ]
)


@dataclass(frozen=True)
class WorkloadMix:
    """One quad-core multiprogrammed mix (a row of Table 7.3)."""

    name: str
    benchmark_names: Tuple[str, str, str, str]

    @property
    def profiles(self) -> List[BenchmarkProfile]:
        """The four benchmark profiles of this mix."""
        return [BENCHMARKS[b] for b in self.benchmark_names]


def _mix(name: str, *benchmarks: str) -> WorkloadMix:
    missing = [b for b in benchmarks if b not in BENCHMARKS]
    if missing:
        raise ValueError(f"unknown benchmarks {missing}")
    return WorkloadMix(name=name, benchmark_names=tuple(benchmarks))


#: Table 7.3 verbatim ("fma3di" in the thesis is a typo for fma3d).
ALL_MIXES: List[WorkloadMix] = [
    _mix("Mix1", "mesa", "leslie3d", "GemsFDTD", "fma3d"),
    _mix("Mix2", "omnetpp", "soplex", "apsi", "mesa"),
    _mix("Mix3", "sphinx3", "calculix", "omnetpp", "wupwise"),
    _mix("Mix4", "lucas", "gromacs", "swim", "fma3d"),
    _mix("Mix5", "mesa", "swim", "apsi", "sphinx3"),
    _mix("Mix6", "sjeng", "swim", "facerec", "ammp"),
    _mix("Mix7", "milc", "GemsFDTD", "leslie3d", "omnetpp"),
    _mix("Mix8", "facerec", "leslie3d", "ammp", "mgrid"),
    _mix("Mix9", "applu", "soplex", "mcf2006", "GemsFDTD"),
    _mix("Mix10", "mcf2006", "libquantum", "omnetpp", "astar"),
    _mix("Mix11", "calculix", "swim", "art110", "omnetpp"),
    _mix("Mix12", "lbm", "facerec", "h264ref", "ammp"),
]


def mix_by_name(name: str) -> WorkloadMix:
    """Look a mix up by its Table 7.3 name."""
    for mix in ALL_MIXES:
        if mix.name == name:
            return mix
    raise KeyError(f"no mix named {name}")
