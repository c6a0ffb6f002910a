"""Run statistics: cycle counts, per-unit counters, datapath utilization.

The :class:`DatapathUtilization` bucket definitions follow Figure 4 of
the paper exactly.  There are ``arith_fus * lanes`` arithmetic datapaths
(24 in the base machine).  Every datapath-cycle is classified as:

* ``busy``        -- executing an element operation,
* ``partly_idle`` -- its FU is executing an instruction whose vector
  length leaves this lane slot empty this cycle (short-VL waste),
* ``stalled``     -- its FU is idle although vector instructions are
  pending in the partition (dependences / issue bandwidth),
* ``all_idle``    -- no vector work exists for its partition at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry


@dataclass
class DatapathUtilization:
    """Datapath-cycle accounting across all lanes (Figure 4)."""

    busy: int = 0
    partly_idle: int = 0
    stalled: int = 0
    all_idle: int = 0

    @property
    def total(self) -> int:
        return self.busy + self.partly_idle + self.stalled + self.all_idle

    def fractions(self) -> Dict[str, float]:
        """Bucket shares of all datapath-cycles.

        An empty accounting (``total == 0`` -- a run with no vector work
        at all, or a unit that never stepped) has no meaningful
        fractions; returning all-zeros here used to silently satisfy
        "sums to ~0" checks downstream.  An empty dict is returned
        instead so callers must handle the empty-run case explicitly.
        """
        t = self.total
        if t == 0:
            return {}
        return {"busy": self.busy / t, "partly_idle": self.partly_idle / t,
                "stalled": self.stalled / t, "all_idle": self.all_idle / t}

    def merged(self, other: "DatapathUtilization") -> "DatapathUtilization":
        """Bucket-wise sum.

        Invariants preserved: ``merged(x).total == self.total + x.total``
        and merging an empty accounting is the identity, so an
        empty-merged-with-empty result still reports ``fractions() ==
        {}`` rather than fabricating a breakdown.
        """
        return DatapathUtilization(
            busy=self.busy + other.busy,
            partly_idle=self.partly_idle + other.partly_idle,
            stalled=self.stalled + other.stalled,
            all_idle=self.all_idle + other.all_idle)


@dataclass
class ScalarUnitStats:
    fetched: int = 0
    issued: int = 0
    committed: int = 0
    branch_lookups: int = 0
    branch_mispredicts: int = 0
    l1i_accesses: int = 0
    l1i_misses: int = 0
    l1d_accesses: int = 0
    l1d_misses: int = 0
    fetch_stall_cycles: int = 0
    dispatch_stall_viq: int = 0


@dataclass
class VectorUnitStats:
    issued: int = 0
    element_ops: int = 0
    mem_instrs: int = 0
    mem_elements: int = 0
    viq_full_events: int = 0


@dataclass
class LaneCoreStats:
    issued: int = 0
    icache_accesses: int = 0
    icache_misses: int = 0
    load_stall_cycles: int = 0
    branch_mispredicts: int = 0


@dataclass
class RunResult:
    """Everything a timing-simulation run produces."""

    config_name: str
    program_name: str
    num_threads: int
    cycles: int
    utilization: DatapathUtilization = field(default_factory=DatapathUtilization)
    scalar_units: List[ScalarUnitStats] = field(default_factory=list)
    vector_unit: Optional[VectorUnitStats] = None
    lane_cores: List[LaneCoreStats] = field(default_factory=list)
    thread_finish: List[int] = field(default_factory=list)
    barrier_count: int = 0
    l2_bank_conflict_cycles: int = 0
    #: cycle of each barrier release -- phase boundaries for the
    #: opportunity metric (Table 4)
    phase_release_cycles: List[int] = field(default_factory=list)
    #: per-partition datapath accounting (same buckets as
    #: :attr:`utilization`; bucket-wise they sum to it exactly, modulo a
    #: residual from dynamic repartitioning that the stall-attribution
    #: report surfaces explicitly).  Populated for vector-unit runs.
    partition_utilization: List[DatapathUtilization] = \
        field(default_factory=list)
    #: lanes per partition, parallel to :attr:`partition_utilization`
    partition_lanes: List[int] = field(default_factory=list)
    #: observability metrics registry (only populated when the run was
    #: traced, e.g. via :func:`repro.timing.run.simulate_traced`)
    metrics: Optional["MetricsRegistry"] = None

    def phase_durations(self) -> List[int]:
        """Cycle count of each barrier-delimited phase (last phase ends
        at program completion)."""
        bounds = [0] + list(self.phase_release_cycles) + [self.cycles]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def summary(self) -> str:
        lines = [
            f"run {self.program_name} on {self.config_name} "
            f"({self.num_threads} threads): {self.cycles} cycles",
        ]
        if self.vector_unit is not None:
            vu = self.vector_unit
            lines.append(
                f"  vector: {vu.issued} instrs, {vu.element_ops} element ops")
            fr = self.utilization.fractions()
            if fr:
                lines.append(
                    "  datapaths: busy {busy:.1%}, partly-idle "
                    "{partly_idle:.1%}, stalled {stalled:.1%}, all-idle "
                    "{all_idle:.1%}".format(**fr))
        for i, s in enumerate(self.scalar_units):
            lines.append(f"  SU{i}: fetched {s.fetched}, issued {s.issued}")
        for i, s in enumerate(self.lane_cores):
            if s.issued:
                miss = (s.icache_misses / s.icache_accesses
                        if s.icache_accesses else 0.0)
                lines.append(
                    f"  lane{i}: issued {s.issued}, I$ misses "
                    f"{s.icache_misses}/{s.icache_accesses} ({miss:.1%})")
        lines.append(
            f"  L2 bank-conflict cycles: {self.l2_bank_conflict_cycles}")
        return "\n".join(lines)
