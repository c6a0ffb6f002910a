"""Vector lanes re-engineered as scalar cores (paper Section 5).

For parallel-but-not-vectorizable code, each lane is augmented with a
4 KB instruction cache and sequencing logic and runs one scalar thread
as a **2-way in-order** processor.  Key modelling points, following the
paper:

* no per-lane data cache: every load/store goes to the banked L2 (the
  10-cycle hit latency is tolerable because the lanes already have
  queueing resources for access decoupling -- modelled as scoreboarded
  loads plus *decoupled slip*: while the in-order execute stream is
  stalled on an operand, later loads whose addresses are ready may issue
  ahead, up to ``decouple_depth`` instructions and subject to
  register-hazard checks -- the access/execute decoupling of [14] that
  the paper leans on);
* lane I-cache misses are forwarded to the scalar unit for service,
  modelled as an L2 access plus a fixed forwarding overhead;
* out-of-order execution within a lane is not possible: issue stops at
  the first instruction whose operands are not ready;
* a small bimodal predictor with a shallow-pipeline mispredict penalty.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..functional.trace import DynOp
from ..isa.registers import NUM_REG_UIDS
from ..obs.events import Event, LANE_ISSUE, STALL, StallReason
from .branch import BimodalPredictor
from .caches import Cache
from .config import LaneCoreConfig
from .l2 import BankedL2
from .stats import LaneCoreStats

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

from .scalar_unit import CODE_BASE, INSTR_BYTES

# slip kinds of a static instruction (see :func:`_slip_facts`)
_OTHER, _BOUNDARY, _LOAD, _ADDR = range(4)


def _slip_facts(op: DynOp) -> tuple:
    """Static decoupled-slip facts of ``op``'s instruction.

    Returns ``(kind, read_mask, write_mask, access_mask, dest_mask,
    dest, reads)``: the slip kind, bitmasks of the register uids it
    reads, writes and either reads or writes, the bit and uid of its
    destination (``writes[0]``) and its source uids.  Only loads and
    scalar-integer ops that write a register are slip candidates; all
    other non-boundary ops are ``_OTHER``.  The facts depend only on
    the pc, so one tuple serves every dynamic instance.
    """
    spec = op.spec
    writes = op.writes
    if spec.is_barrier or spec.is_halt or spec.is_vltcfg or spec.is_vector:
        kind = _BOUNDARY
    elif not writes:
        kind = _OTHER
    elif spec.is_load:
        kind = _LOAD
    elif (spec.pool == "arith" and not spec.is_branch
          and all(u < 32 for u in writes)):
        kind = _ADDR
    else:
        kind = _OTHER
    read_mask = 0
    for u in op.reads:
        read_mask |= 1 << u
    write_mask = 0
    for u in writes:
        write_mask |= 1 << u
    dest = writes[0] if writes else -1
    dest_mask = 1 << dest if writes else 0
    return (kind, read_mask, write_mask, read_mask | write_mask, dest_mask,
            dest, op.reads)


class LaneCore:
    """One lane operating as an independent 2-way in-order scalar core."""

    def __init__(self, machine: "Machine", lane_idx: int,
                 cfg: LaneCoreConfig, l2: BankedL2):
        self.machine = machine
        self.lane_idx = lane_idx
        self.cfg = cfg
        self.l2 = l2
        self.obs = machine.obs
        self.stats = LaneCoreStats()
        self.icache = Cache(cfg.icache_kib * 1024, 1, cfg.icache_line,
                            name=f"lane{lane_idx}-I$", bus=self.obs)
        self.bpred = BimodalPredictor(cfg.bpred_entries)
        self.tid: Optional[int] = None
        self.trace: List[DynOp] = []
        self.idx = 0
        self.reg_ready = [0] * NUM_REG_UIDS
        self.stall_until = 0
        self.last_done = 0
        self.last_iline = -1
        self.waiting_barrier = False
        self.halted = True  # no thread assigned yet
        self.finish_time: Optional[int] = None
        #: trace indices of loads issued early by decoupled slip
        self.pre_issued: set = set()
        #: per-op slip facts (shared per pc; see :func:`_slip_facts`)
        self.facts: List[tuple] = []
        #: earliest cycle at which a stalled slip scan can issue again
        self.slip_wake = 0

    def add_thread(self, tid: int, trace: List[DynOp]) -> None:
        self.tid = tid
        self.trace = trace
        by_pc = {}
        for op in trace:
            if op.pc not in by_pc:
                by_pc[op.pc] = _slip_facts(op)
        self.facts = [by_pc[op.pc] for op in trace]
        self.halted = False

    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        if self.halted or self.waiting_barrier:
            return
        if self.stall_until > cycle:
            # execute stream stalled: the access stream keeps running,
            # but only rescans once its last scan's result can change
            if cycle >= self.slip_wake:
                self._slip(cycle, 2)
            return
        self.slip_wake = 0
        budget = self.cfg.width
        mem_slots = 2  # two memory ports per lane (Table 3)
        trace = self.trace
        reg_ready = self.reg_ready

        while budget:
            if self.idx in self.pre_issued:
                # load already issued by decoupled slip
                self.pre_issued.discard(self.idx)
                self.idx += 1
                continue
            dynop = trace[self.idx]
            spec = dynop.spec

            iline = (CODE_BASE + dynop.pc * INSTR_BYTES) // self.cfg.icache_line
            if iline != self.last_iline:
                self.stats.icache_accesses += 1
                self.last_iline = iline
                if not self.icache.access(iline * self.cfg.icache_line):
                    self.stats.icache_misses += 1
                    self.stall_until = self.l2.access(
                        iline * self.cfg.icache_line, cycle) \
                        + self.cfg.imiss_extra
                    obs = self.obs
                    if obs.enabled:
                        obs.emit(Event(cycle, STALL,
                                       f"lane{self.lane_idx}", dynop,
                                       dur=self.stall_until - cycle,
                                       reason=StallReason.LANE_IMISS))
                    return

            if spec.is_vector:
                raise RuntimeError(
                    "vector instruction in a scalar lane-core thread "
                    f"(pc {dynop.pc}, op {dynop.op!r})")
            if spec.is_barrier:
                self.idx += 1
                self.waiting_barrier = True
                self.machine.barrier_arrive(
                    self.tid, max(cycle, self.last_done))
                return
            if spec.is_halt:
                self.idx += 1
                self.halted = True
                self.finish_time = max(cycle, self.last_done)
                self.machine.thread_halted(self.tid, self.finish_time)
                return
            if spec.is_vltcfg:
                self.idx += 1
                self.stall_until = cycle + self.machine.cfg.vltcfg_overhead
                return

            # In-order: block on the first not-ready instruction (but let
            # ready loads slip ahead through the decoupling queue).
            ready = cycle
            for uid in dynop.reads:
                t = reg_ready[uid]
                if t > ready:
                    ready = t
            if ready > cycle:
                self.stall_until = ready
                self.stats.load_stall_cycles += ready - cycle
                obs = self.obs
                if obs.enabled:
                    obs.emit(Event(cycle, STALL, f"lane{self.lane_idx}",
                                   dynop, dur=ready - cycle,
                                   reason=StallReason.OPERAND))
                self._slip(cycle, mem_slots)
                return

            if spec.pool == "mem":
                if mem_slots == 0:
                    return
                mem_slots -= 1
                addr = int(dynop.addrs[0])
                if spec.is_load:
                    done = self.l2.access(addr, cycle + spec.latency)
                else:
                    self.l2.access(addr, cycle + spec.latency)
                    # lane stores write the L2; SU L1 copies go stale
                    self.machine.l1d_invalidate(addr)
                    done = cycle + spec.latency
            else:
                done = cycle + spec.latency

            for uid in dynop.writes:
                reg_ready[uid] = done
            if done > self.last_done:
                self.last_done = done
            self.stats.issued += 1
            obs = self.obs
            if obs.enabled:
                obs.emit(Event(cycle, LANE_ISSUE, f"lane{self.lane_idx}",
                               dynop, dur=done - cycle))
            self.idx += 1
            budget -= 1

            if spec.is_branch and not spec.is_uncond:
                correct = self.bpred.predict_and_update(dynop.pc, dynop.taken)
                if not correct:
                    self.stats.branch_mispredicts += 1
                    self.stall_until = done + self.cfg.mispredict_penalty
                    if obs.enabled:
                        obs.emit(Event(
                            cycle, STALL, f"lane{self.lane_idx}", dynop,
                            dur=self.stall_until - cycle,
                            reason=StallReason.LANE_MISPREDICT))
                    return

    # ------------------------------------------------------------------

    def _slip(self, cycle: int, budget: int) -> None:
        """Decoupled access-stream slip.

        While the in-order execute stream is stalled on an operand, the
        lane's access resources keep running: later *loads* and the
        *integer ops that feed their addresses* may issue if their
        operands are ready -- the access/execute decoupling of the
        paper's citation [14], which the lanes implement with their
        vector-memory queuing resources (Sections 2 and 5).

        Hazard rules (register-level, conservative): an instruction may
        slip only if no unissued earlier instruction writes any of its
        sources (true dependence) and none reads or writes its
        destination (anti/output dependence).  FP instructions never
        slip (they are the execute stream); stores never slip; slip
        stops at control boundaries and is bounded by
        ``decouple_depth`` instructions and ``budget`` issues per cycle.
        Memory-order hazards are not modelled, as in the rest of the
        timing simulator.

        Known deviation, kept because fixing it moves pinned cycles: on
        the operand-stall path :meth:`step` passes its *remaining memory
        ports* as ``budget`` and ignores its remaining issue width, so a
        lane that issued one ALU op in order may slip two more ops in
        the same cycle (3 issues on a 2-wide core).

        Wake-up: a scan that issues nothing records in ``slip_wake`` the
        earliest cycle at which its result can change -- the smallest
        operand-ready time of a hazard-free candidate blocked only on
        its operands, capped by ``stall_until``.  The scan reads only
        ``idx``, ``pre_issued`` and this lane's ``reg_ready``, which
        change only when this lane issues, and a scan that issues
        nothing has no side effects, so every rescan before that cycle
        would repeat it exactly.  A scan that issues anything, or that
        has no budget, wakes at ``cycle + 1``.  Hazard checks are O(1)
        bitmask tests on the per-pc facts of :func:`_slip_facts`.
        """
        if not budget:
            self.slip_wake = cycle + 1
            return
        trace = self.trace
        facts = self.facts
        reg_ready = self.reg_ready
        pre_issued = self.pre_issued
        idx = self.idx
        _, _, written, touched, _, _, _ = facts[idx]
        limit = min(len(trace), idx + 1 + self.cfg.decouple_depth)
        mem_slots = 2
        wake = self.stall_until
        for j in range(idx + 1, limit):
            if j in pre_issued:
                continue
            kind, rmask, wmask, amask, dmask, dst, reads = facts[j]
            if kind:
                if kind == _BOUNDARY:
                    break
                # candidates: loads while a memory port is left, and
                # scalar-integer address arithmetic, free of hazards
                if (mem_slots or kind == _ADDR) and not touched & dmask \
                        and not written & rmask:
                    ready = 0
                    for u in reads:
                        t = reg_ready[u]
                        if t > ready:
                            ready = t
                    if ready <= cycle:
                        op = trace[j]
                        spec = op.spec
                        if kind == _LOAD:
                            done = self.l2.access(int(op.addrs[0]),
                                                  cycle + spec.latency)
                            mem_slots -= 1
                        else:
                            done = cycle + spec.latency
                        reg_ready[dst] = done
                        if done > self.last_done:
                            self.last_done = done
                        pre_issued.add(j)
                        self.stats.issued += 1
                        obs = self.obs
                        if obs.enabled:
                            obs.emit(Event(cycle, LANE_ISSUE,
                                           f"lane{self.lane_idx}", op,
                                           dur=done - cycle, arg="slip"))
                        wake = cycle + 1
                        budget -= 1
                        if not budget:
                            break
                        continue
                    if ready < wake:
                        wake = ready
            written |= wmask
            touched |= amask
        self.slip_wake = wake

    def resume(self, at: int) -> None:
        """Barrier release: resume fetching at cycle ``at``."""
        self.waiting_barrier = False
        self.stall_until = max(self.stall_until, at)

    def next_event(self, cycle: int) -> int:
        """Next cycle at which :meth:`step` can do work.

        A stalled lane sleeps until its execute stream resumes or its
        slip scan can change (``slip_wake``), so the machine skips
        stretches in which every lane waits.
        """
        if self.halted or self.waiting_barrier:
            return 1 << 62
        if self.stall_until > cycle:
            return max(cycle + 1, min(self.slip_wake, self.stall_until))
        return cycle + 1
