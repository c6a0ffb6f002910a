"""Experiment drivers: one function per paper table/figure.

Every driver returns a plain-data result object that the report module
renders; nothing here prints.  Results carry the paper's published
values alongside the measured ones so EXPERIMENTS.md can show both.

Run-matrix conventions (Sections 6-7 of the paper):

* Figure 1: base machine, single thread, lanes swept over 1/2/4/8.
* Figure 3: V2-CMP with 2 threads and V4-CMP with 4 threads (the
  maximum-performance replicated configurations), speedup over BASE.
* Figure 4: datapath-utilization breakdown for BASE / VLT-2 / VLT-4.
* Figure 5: the SU design space -- V2-SMT, V2-CMP (2 threads);
  V4-SMT, V4-CMT, V4-CMP, V4-CMP-h (4 threads).
* Figure 6: 8 scalar threads on the lanes (VLT-scalar) vs. 4 threads on
  the CMT machine (two 4-way 2-way-SMT SUs, no vector unit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..area.model import table1_rows, table2_rows
from ..timing.config import (BASE, CMT, V2_CMP, V2_SMT, V4_CMP, V4_CMP_H,
                             V4_CMT, V4_SMT, VLT_SCALAR, MachineConfig,
                             base_config, get_config)
from ..timing.run import simulate
from ..timing.stats import DatapathUtilization, RunResult
from ..workloads import AppCharacteristics, characterize, get_workload
from .runner import MissingRunError, RunSpec

#: the run map the figure drivers read, keyed by run spec: the parallel
#: runner's precomputed results or a :class:`LazyRunMap`; ``None`` means
#: "a fresh :class:`LazyRunMap`".
RunMap = Optional[Mapping[RunSpec, RunResult]]


class LazyRunMap(Dict[RunSpec, RunResult]):
    """The serial run map: simulates a spec the first time it is looked
    up and remembers the result.

    Figures 3, 4 and 5 share most of their runs, so drivers that read
    one map replay each spec once.  A map lives as long as one sweep
    (one ``vlt-repro`` invocation, one generated document); it is never
    module-global, so separate sweeps in one process never share results.
    """

    def __missing__(self, spec: RunSpec) -> RunResult:
        prog = get_workload(spec.app).program(scalar_only=spec.scalar_only,
                                              strategy=spec.strategy)
        result = self[spec] = simulate(prog, get_config(spec.config),
                                       num_threads=spec.threads)
        return result

    def get(self, spec: RunSpec,  # type: ignore[override]
            default: Optional[RunResult] = None) -> RunResult:
        return self[spec]


#: application groups (Table 4 structure)
LONG_VECTOR_APPS = ("mxm", "sage")
VLT_VECTOR_APPS = ("mpenc", "trfd", "multprec", "bt")
SCALAR_APPS = ("radix", "ocean", "barnes")
ALL_APPS = LONG_VECTOR_APPS + VLT_VECTOR_APPS + SCALAR_APPS

#: paper Figure 1 speedups at 8 lanes, eyeballed from the plot, used
#: only for shape context in the report (not assertions).
PAPER_FIG1_8LANE = {
    "mxm": 6.5, "sage": 7.0, "mpenc": 2.2, "trfd": 1.3, "multprec": 2.2,
    "bt": 1.2, "radix": 1.0, "ocean": 1.0, "barnes": 1.0,
}

#: paper Figure 3 speedup bands
PAPER_FIG3_BANDS = {2: (1.14, 2.15), 4: (1.40, 2.3)}

#: paper Figure 6 speedups of VLT scalar threads over CMT
PAPER_FIG6 = {"radix": 2.0, "ocean": 2.2, "barnes": 1.1}


def _run(app: str, cfg: MachineConfig, threads: int,
         scalar_only: bool = False, runs: RunMap = None) -> RunResult:
    """One timing run, looked up in the run map ``runs``.

    ``None`` gets a fresh :class:`LazyRunMap`, which simulates here.  A
    precomputed map (the parallel runner's) raises
    :class:`MissingRunError` for a missing or failed spec, so the report
    section that needed it can degrade instead of the whole sweep dying.
    """
    spec = RunSpec(app=app, config=cfg.name, threads=threads,
                   scalar_only=scalar_only)
    result = (LazyRunMap() if runs is None else runs).get(spec)
    if result is None:
        raise MissingRunError(spec)
    return result


# --------------------------------------------------------------------------
# Run matrices: each figure's runs as data (for the parallel runner)
# --------------------------------------------------------------------------

def fig1_matrix(apps: Sequence[str] = ALL_APPS,
                lanes: Sequence[int] = (1, 2, 4, 8)) -> List[RunSpec]:
    return [RunSpec(app, base_config(lanes=n).name, 1)
            for app in apps for n in lanes]


def fig3_matrix(apps: Sequence[str] = VLT_VECTOR_APPS) -> List[RunSpec]:
    return [spec for app in apps for spec in (
        RunSpec(app, BASE.name, 1),
        RunSpec(app, V2_CMP.name, 2),
        RunSpec(app, V4_CMP.name, 4))]


def fig4_matrix(apps: Sequence[str] = VLT_VECTOR_APPS) -> List[RunSpec]:
    return fig3_matrix(apps)


def fig5_matrix(apps: Sequence[str] = VLT_VECTOR_APPS) -> List[RunSpec]:
    return [spec for app in apps for spec in (
        [RunSpec(app, BASE.name, 1)]
        + [RunSpec(app, cfg.name, threads) for cfg, threads in FIG5_POINTS])]


def fig6_matrix(apps: Sequence[str] = SCALAR_APPS) -> List[RunSpec]:
    return [spec for app in apps for spec in (
        RunSpec(app, CMT.name, 4, scalar_only=True),
        RunSpec(app, VLT_SCALAR.name, 8, scalar_only=True))]


def matrix_for(names: Sequence[str],
               apps: Optional[Sequence[str]] = None,
               lanes: Optional[Sequence[int]] = None) -> List[RunSpec]:
    """Deduplicated union of the run matrices for ``names``.

    ``names`` may include non-simulation entries (tables); they simply
    contribute no specs.  ``apps``/``lanes`` override each figure's
    sweep exactly the way the driver arguments do -- verbatim, NOT
    intersected with the figure's default set, so the matrix always
    covers precisely the runs the drivers will look up.
    """
    def pick(defaults: Sequence[str]) -> Sequence[str]:
        return apps if apps else defaults

    specs: List[RunSpec] = []
    for name in names:
        if name == "fig1":
            specs += fig1_matrix(pick(ALL_APPS), lanes or (1, 2, 4, 8))
        elif name == "fig3":
            specs += fig3_matrix(pick(VLT_VECTOR_APPS))
        elif name == "fig4":
            specs += fig4_matrix(pick(VLT_VECTOR_APPS))
        elif name == "fig5":
            specs += fig5_matrix(pick(VLT_VECTOR_APPS))
        elif name == "fig6":
            specs += fig6_matrix(pick(SCALAR_APPS))
    out: List[RunSpec] = []
    seen = set()
    for s in specs:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


# --------------------------------------------------------------------------
# Figure 1 -- lane scaling
# --------------------------------------------------------------------------

@dataclass
class Fig1Result:
    lanes: Tuple[int, ...]
    #: app -> cycles per lane count
    cycles: Dict[str, List[int]]

    def speedups(self, app: str) -> List[float]:
        c = self.cycles[app]
        return [c[0] / x for x in c]


def fig1_lane_scaling(apps: Sequence[str] = ALL_APPS,
                      lanes: Sequence[int] = (1, 2, 4, 8),
                      runs: RunMap = None) -> Fig1Result:
    """Single-thread speedup vs. number of vector lanes (paper Fig. 1)."""
    cycles: Dict[str, List[int]] = {}
    for app in apps:
        row: List[int] = []
        for n in lanes:
            row.append(_run(app, base_config(lanes=n), 1, runs=runs).cycles)
        cycles[app] = row
    return Fig1Result(lanes=tuple(lanes), cycles=cycles)


# --------------------------------------------------------------------------
# Tables 1-3 -- area model and machine parameters
# --------------------------------------------------------------------------

@dataclass
class AreaResult:
    table1: List[Tuple[str, float]]
    #: (config, recomputed %, paper %)
    table2: List[Tuple[str, float, float]]


def area_tables() -> AreaResult:
    return AreaResult(table1=table1_rows(), table2=table2_rows())


def table3_parameters() -> List[Tuple[str, str]]:
    """The base machine parameters as (component, description) rows."""
    su = BASE.scalar_units[0]
    vu = BASE.vu
    l2 = BASE.l2
    return [
        ("Scalar Unit", f"{su.width}-way out-of-order superscalar; "
         f"{su.window}-entry window/ROB; {su.arith_units} arithmetic "
         f"units, {su.mem_ports} memory ports; {su.l1i_kib}-KB "
         f"{su.l1_assoc}-way L1 caches"),
        ("Vector Control", f"{vu.issue_width}-way issue, "
         f"{vu.viq_entries}-entry VIQ"),
        ("Vector Lanes", f"{vu.lanes} lanes; {vu.arith_fus} arithmetic "
         f"datapaths + {vu.mem_ports} memory ports per lane; "
         f"64 elements/register distributed 8 per lane"),
        ("Memory System", f"{l2.size_kib // 1024}-MB L2, {l2.assoc}-way, "
         f"{l2.banks}-way banked; {l2.hit_latency}-cycle hit, "
         f"{l2.miss_latency}-cycle miss penalty"),
    ]


# --------------------------------------------------------------------------
# Table 4 -- application characteristics
# --------------------------------------------------------------------------

def table4_characteristics(apps: Sequence[str] = ALL_APPS
                           ) -> List[AppCharacteristics]:
    return [characterize(a) for a in apps]


# --------------------------------------------------------------------------
# Figure 3 -- VLT speedup with vector threads
# --------------------------------------------------------------------------

@dataclass
class Fig3Result:
    #: app -> {"base": cycles, 2: cycles, 4: cycles}
    cycles: Dict[str, Dict[object, int]]

    def speedup(self, app: str, threads: int) -> float:
        return self.cycles[app]["base"] / self.cycles[app][threads]


def fig3_vlt_speedup(apps: Sequence[str] = VLT_VECTOR_APPS,
                     runs: RunMap = None) -> Fig3Result:
    """VLT speedup over base: V2-CMP (2 threads), V4-CMP (4 threads)."""
    out: Dict[str, Dict[object, int]] = {}
    for app in apps:
        out[app] = {
            "base": _run(app, BASE, 1, runs=runs).cycles,
            2: _run(app, V2_CMP, 2, runs=runs).cycles,
            4: _run(app, V4_CMP, 4, runs=runs).cycles,
        }
    return Fig3Result(cycles=out)


# --------------------------------------------------------------------------
# Figure 4 -- datapath utilization
# --------------------------------------------------------------------------

@dataclass
class Fig4Result:
    #: app -> label -> (utilization, cycles)
    data: Dict[str, Dict[str, Tuple[DatapathUtilization, int]]]

    def normalized_bars(self, app: str) -> Dict[str, Dict[str, float]]:
        """Per-config datapath-cycle buckets normalised to the *base*
        run's total datapath-cycles (paper Fig. 4: lower bar = faster)."""
        base_total = self.data[app]["base"][0].total
        bars = {}
        for label, (util, _cycles) in self.data[app].items():
            bars[label] = {k: v / base_total
                           for k, v in (("busy", util.busy),
                                        ("stalled", util.stalled),
                                        ("all_idle", util.all_idle),
                                        ("partly_idle", util.partly_idle))}
        return bars


def fig4_utilization(apps: Sequence[str] = VLT_VECTOR_APPS,
                     runs: RunMap = None) -> Fig4Result:
    data: Dict[str, Dict[str, Tuple[DatapathUtilization, int]]] = {}
    for app in apps:
        base = _run(app, BASE, 1, runs=runs)
        r2 = _run(app, V2_CMP, 2, runs=runs)
        r4 = _run(app, V4_CMP, 4, runs=runs)
        data[app] = {
            "base": (base.utilization, base.cycles),
            "VLT-2": (r2.utilization, r2.cycles),
            "VLT-4": (r4.utilization, r4.cycles),
        }
    return Fig4Result(data=data)


# --------------------------------------------------------------------------
# Figure 5 -- scalar-unit design space
# --------------------------------------------------------------------------

#: (config, thread count) points of Figure 5, in the paper's legend order.
FIG5_POINTS: Tuple[Tuple[MachineConfig, int], ...] = (
    (V2_SMT, 2), (V2_CMP, 2), (V4_SMT, 4), (V4_CMT, 4), (V4_CMP, 4),
    (V4_CMP_H, 4),
)


@dataclass
class Fig5Result:
    #: app -> config name -> speedup over base
    speedups: Dict[str, Dict[str, float]]
    base_cycles: Dict[str, int]


def fig5_design_space(apps: Sequence[str] = VLT_VECTOR_APPS,
                      runs: RunMap = None) -> Fig5Result:
    speedups: Dict[str, Dict[str, float]] = {}
    base_cycles: Dict[str, int] = {}
    for app in apps:
        base = _run(app, BASE, 1, runs=runs).cycles
        base_cycles[app] = base
        row: Dict[str, float] = {}
        for cfg, threads in FIG5_POINTS:
            row[cfg.name] = base / _run(app, cfg, threads, runs=runs).cycles
        speedups[app] = row
    return Fig5Result(speedups=speedups, base_cycles=base_cycles)


# --------------------------------------------------------------------------
# Figure 6 -- scalar threads on the lanes vs CMT
# --------------------------------------------------------------------------

@dataclass
class Fig6Result:
    #: app -> {"CMT": cycles, "VLT": cycles}
    cycles: Dict[str, Dict[str, int]]

    def speedup(self, app: str) -> float:
        return self.cycles[app]["CMT"] / self.cycles[app]["VLT"]


def fig6_scalar_threads(apps: Sequence[str] = SCALAR_APPS,
                        runs: RunMap = None) -> Fig6Result:
    """8 VLT scalar threads on the lanes vs 4 threads on the CMT machine.

    Both run the ``scalar_only`` program flavour: lane cores cannot
    execute vector instructions, and the comparison must hold the
    program constant.
    """
    out: Dict[str, Dict[str, int]] = {}
    for app in apps:
        out[app] = {
            "CMT": _run(app, CMT, 4, scalar_only=True, runs=runs).cycles,
            "VLT": _run(app, VLT_SCALAR, 8, scalar_only=True,
                        runs=runs).cycles,
        }
    return Fig6Result(cycles=out)
