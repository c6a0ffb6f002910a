"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from . import experiments as E
from . import report as R
from .runner import MissingRunError, RunFailure

_HEADER = """\
# EXPERIMENTS -- paper vs. measured

Reproduction of every evaluation table and figure of *Vector Lane
Threading* (Rivoire, Schultz, Okuda, Kozyrakis -- ICPP 2006) on the
`repro` simulator.  Absolute cycle counts are not comparable to the
paper's (scaled workloads, reconstructed microarchitecture); the claims
under test are the *shapes*: who wins, by roughly what factor, and where
the crossovers fall.  See DESIGN.md section 4 for the per-experiment
acceptance criteria.

Regenerate this file with:

    python -m repro.harness.cli all --experiments-md EXPERIMENTS.md
"""


def generate_experiments_md(runs: E.RunMap = None,
                            failures: Optional[Sequence[RunFailure]] = None
                            ) -> str:
    """Render the full report.

    ``runs`` is the spec -> result map every figure reads: the caller's
    (the CLI passes the map its sections already filled, or the parallel
    runner's precomputed results), or, when ``None``, one fresh
    :class:`~repro.harness.experiments.LazyRunMap` for this document, so
    a run shared by several figures is simulated once.  Every path
    produces a byte-identical document.  A figure whose matrix has a
    failed/missing run in a precomputed map degrades to a FAILED section
    instead of aborting the document, and a non-empty ``failures`` list
    adds an appendix describing what broke.
    """
    if runs is None:
        runs = E.LazyRunMap()
    sections: List[str] = [_HEADER]

    def add(title: str, body: str, commentary: str = "") -> None:
        sections.append(f"\n## {title}\n\n```\n{body}\n```\n")
        if commentary:
            sections.append(commentary + "\n")

    def add_figure(title: str, driver: Callable[[], object],
                   render: Callable[[object], str],
                   commentary: Callable[[object], str]) -> None:
        try:
            data = driver()
        except MissingRunError as exc:
            add(title, f"SECTION FAILED: required run unavailable: "
                       f"{exc.spec}",
                "This section could not be rendered because a run in its "
                "matrix failed; see the run-failure appendix below.")
            return
        add(title, render(data), commentary(data))

    add("Tables 1-2: area model", R.render_area(E.area_tables()),
        "Measured values are exact arithmetic over the paper's Table 1 "
        "component areas; every entry matches the paper within rounding "
        "except V4-CMP, where the paper's own prose (37%) agrees with our "
        "recomputation (36.8%) rather than its table (26.9%).")

    add("Table 3: base machine parameters",
        R.render_table3(E.table3_parameters()),
        "Configuration dump of the simulated base machine -- matches the "
        "paper's Table 3 by construction.")

    add("Table 4: application characteristics",
        R.render_table4(E.table4_characteristics()),
        "Workload generators were tuned to land in the paper's bands; "
        "the table shows measured values with the paper's in parentheses. "
        "Opportunity is measured from base-machine phase timings (parallel "
        "phases / total).")

    add_figure("Figure 1: lane scaling",
               lambda: E.fig1_lane_scaling(runs=runs),
               R.render_fig1, _fig1_commentary)

    add_figure("Figure 3: VLT speedup (vector threads)",
               lambda: E.fig3_vlt_speedup(runs=runs),
               R.render_fig3, _fig3_commentary)

    add_figure("Figure 4: datapath utilization",
               lambda: E.fig4_utilization(runs=runs),
               R.render_fig4,
               lambda _data: (
                   "As in the paper: VLT compresses execution (total bar "
                   "shrinks vs. base = 1.0), busy datapath-cycles grow as a "
                   "share, and stall/idle cycles shrink, while a residue of "
                   "stall/idle remains from sequential portions and "
                   "functional-unit imbalance."))

    add_figure("Figure 5: scalar-unit design space",
               lambda: E.fig5_design_space(runs=runs),
               R.render_fig5, _fig5_commentary)

    add_figure("Figure 6: scalar threads on the lanes",
               lambda: E.fig6_scalar_threads(runs=runs),
               R.render_fig6, _fig6_commentary)

    add("Extensions (paper Sections 3.2/3.3 and 6)", _extensions_report(),
        "Dynamic reconfiguration, the multiplexed-vs-replicated VCL "
        "claim, and the more-lanes trend; see benchmarks/"
        "bench_extensions.py for the asserted versions.")

    if failures:
        lines = ["The parallel runner could not complete every run; the "
                 "sections above that depended on a missing run are marked "
                 "FAILED.", ""]
        for f in failures:
            lines.append(f"* `{f.spec}` -- {f.error_type}: {f.message} "
                         f"(after {f.attempts} attempt"
                         f"{'s' if f.attempts != 1 else ''})")
        sections.append("\n## Appendix: run failures\n\n"
                        + "\n".join(lines) + "\n")

    return "\n".join(sections)


def _extensions_report() -> str:
    from dataclasses import replace

    from ..isa import assemble
    from ..timing import simulate
    from ..timing.config import (BASE, V4_CMP, MachineConfig,
                                 VectorUnitConfig)
    from ..workloads import get_workload

    lines: List[str] = []

    # multiplexed vs replicated VCL (Section 3.2's claim)
    rep_cfg = replace(V4_CMP, name="V4-CMP-repVCL",
                      vu=replace(V4_CMP.vu, replicated_vcl=True))
    lines.append("multiplexed vs replicated VCL (V4, 4 threads):")
    for name in ("mpenc", "trfd", "multprec", "bt"):
        prog = get_workload(name).program()
        mux = simulate(prog, V4_CMP, num_threads=4).cycles
        rep = simulate(prog, rep_cfg, num_threads=4).cycles
        lines.append(f"  {name:10s} mux={mux:>7}  rep={rep:>7}  "
                     f"overhead {100 * (mux / rep - 1):.1f}%")

    # more lanes increase VLT usefulness (Sections 1/6)
    lines.append("")
    lines.append("trfd VLT-4 speedup vs lane count:")
    prog = get_workload("trfd").program()
    for lanes in (8, 16):
        base_m = MachineConfig(name=f"b{lanes}",
                               scalar_units=BASE.scalar_units,
                               vu=VectorUnitConfig(lanes=lanes))
        vlt_m = MachineConfig(name=f"v{lanes}",
                              scalar_units=V4_CMP.scalar_units,
                              vu=VectorUnitConfig(lanes=lanes))
        s = simulate(prog, base_m, num_threads=1).cycles / \
            simulate(prog, vlt_m, num_threads=4).cycles
        lines.append(f"  {lanes:2d} lanes: {s:.2f}x")

    # dynamic reconfiguration (Section 3.3)
    def phased(n):
        return assemble(f"""
        tid s1
        vltcfg {n}
        bne s1, s0, skip
        li s10, 0
        li s11, 80
        rep:
        li s2, 64
        setvl s3, s2
        vfadd.vv v1, v2, v3
        vfmul.vv v4, v1, v2
        vfadd.vv v5, v4, v1
        addi s10, s10, 1
        blt s10, s11, rep
        skip:
        barrier
        vltcfg 4
        li s10, 0
        li s11, 60
        rep2:
        li s2, 8
        setvl s3, s2
        vfadd.vv v1, v2, v3
        vfmul.vv v4, v1, v2
        addi s10, s10, 1
        blt s10, s11, rep2
        barrier
        halt
        """)

    dyn = simulate(phased(1), V4_CMP, num_threads=4).cycles
    static = simulate(phased(4), V4_CMP, num_threads=4).cycles
    lines.append("")
    lines.append(f"dynamic vltcfg on a two-phase kernel: dynamic={dyn} "
                 f"cycles vs static={static} ({static / dyn:.2f}x)")
    return "\n".join(lines)


def _fig1_commentary(fig1: E.Fig1Result) -> str:
    long_ok = all(fig1.speedups(a)[-1] >= 4.0 for a in ("mxm", "sage")
                  if a in fig1.cycles)
    short = [a for a in ("mpenc", "trfd", "multprec", "bt")
             if a in fig1.cycles]
    short_ok = all(fig1.speedups(a)[-1] <= 3.0 for a in short)
    flat = [a for a in ("radix", "ocean", "barnes") if a in fig1.cycles]
    flat_ok = all(fig1.speedups(a)[-1] <= 1.2 for a in flat)
    return (f"Shape check: long-vector apps scale (>=4x at 8 lanes): "
            f"{'PASS' if long_ok else 'FAIL'}; short-vector apps saturate "
            f"(<=3x): {'PASS' if short_ok else 'FAIL'}; scalar apps flat "
            f"(<=1.2x): {'PASS' if flat_ok else 'FAIL'}.")


def _fig3_commentary(fig3: E.Fig3Result) -> str:
    s2 = [fig3.speedup(a, 2) for a in fig3.cycles]
    s4 = [fig3.speedup(a, 4) for a in fig3.cycles]
    mono = all(fig3.speedup(a, 4) >= fig3.speedup(a, 2) * 0.95
               for a in fig3.cycles)
    return (f"Measured ranges: 2 threads {min(s2):.2f}-{max(s2):.2f} "
            f"(paper 1.14-2.15); 4 threads {min(s4):.2f}-{max(s4):.2f} "
            f"(paper 1.40-2.3); 4-thread >= 2-thread for every app: "
            f"{'PASS' if mono else 'FAIL'}.")


def _fig5_commentary(fig5: E.Fig5Result) -> str:
    checks = []
    for app, row in fig5.speedups.items():
        checks.append(abs(row["V2-SMT"] - row["V2-CMP"])
                      <= 0.15 * row["V2-CMP"])
        checks.append(row["V4-CMT"] >= 0.9 * row["V4-CMP"])
        checks.append(row["V4-SMT"] <= row["V4-CMT"] + 0.05)
    ok = all(checks)
    return ("Expected shape (paper Section 7.1): V2-SMT ~ V2-CMP (a "
            "multiplexed SU suffices for 2 threads); V4-SMT falls behind "
            "(4 instructions/cycle cannot feed 4 threads); V4-CMT matches "
            "the fully-replicated V4-CMP at a fraction of the area; "
            "V4-CMP-h trails the other replicated points. Shape check: "
            f"{'PASS' if ok else 'PARTIAL'}.")


def _fig6_commentary(fig6: E.Fig6Result) -> str:
    r = {a: fig6.speedup(a) for a in fig6.cycles}
    ok = (r.get("radix", 0) >= 1.5 and r.get("ocean", 0) >= 1.5
          and 0.8 <= r.get("barnes", 1.0) <= 1.4)
    return (f"Paper: ~2x for radix and ocean (low per-thread ILP: better "
            f"to run 8 threads on 8 simple lane-cores), parity for barnes "
            f"(enough ILP that two wide OOO cores keep up). Shape check: "
            f"{'PASS' if ok else 'PARTIAL'}. We reproduce the direction "
            f"(ocean clearly ahead on the lanes, radix/barnes at parity) "
            f"but not the full 2x: our out-of-order CMT baseline tolerates "
            f"L2 latency better than the paper's, and at our scaled "
            f"working-set sizes its L1s stay effective -- see DESIGN.md "
            f"section 8 for the analysis and "
            f"bench_ablations.py::test_ablation_decoupling_depth for the "
            f"sensitivity of the lane side to the access-decoupling model.")


def write_experiments_md(path: str, runs: E.RunMap = None,
                         failures: Optional[Sequence[RunFailure]] = None
                         ) -> None:
    with open(path, "w") as fh:
        fh.write(generate_experiments_md(runs=runs, failures=failures))
