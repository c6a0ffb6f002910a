"""Wake-up scheduled lane-core slip vs the per-cycle rescan it replaced.

:class:`RescanLaneCore` keeps the original decoupled-slip model as a
test oracle: every stalled cycle rescans the window with Python hazard
sets, and ``next_event`` always asks for the next cycle.  Production
:class:`~repro.timing.lane_core.LaneCore` sleeps until the scan's
result can change.  The two must agree exactly -- same ``RunResult``,
same ``LANE_ISSUE``/``STALL`` event stream -- on random lane-mode
programs that mix address arithmetic feeding loads, FP work, stores,
counted loops with data-dependent branches, barriers and ``vltcfg``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functional import Executor
from repro.isa import assemble
from repro.obs.events import (Event, EventBus, EventLog, LANE_ISSUE,
                              STALL)
from repro.timing import machine as machine_mod
from repro.timing.config import VLT_SCALAR
from repro.timing.lane_core import LaneCore
from repro.timing.machine import run_traces

_DEPTHS = (0, 1, 8, 48)
_KINDS = frozenset({LANE_ISSUE, STALL})


class RescanLaneCore(LaneCore):
    """The per-cycle slip model: rescan every stalled cycle."""

    def step(self, cycle: int) -> None:
        if self.halted or self.waiting_barrier:
            return
        if self.stall_until > cycle:
            self._slip(cycle, 2)
            return
        super().step(cycle)

    def _slip(self, cycle: int, budget: int) -> None:
        trace = self.trace
        reg_ready = self.reg_ready
        mem_slots = 2
        written: set = set()
        read: set = set()
        head = trace[self.idx]
        written.update(head.writes)
        read.update(head.reads)
        limit = min(len(trace), self.idx + 1 + self.cfg.decouple_depth)
        for j in range(self.idx + 1, limit):
            if budget == 0:
                return
            if j in self.pre_issued:
                continue
            op = trace[j]
            spec = op.spec
            if spec.is_barrier or spec.is_halt or spec.is_vltcfg \
                    or spec.is_vector:
                return
            is_addr_op = (spec.pool == "arith" and not spec.is_branch
                          and op.writes
                          and all(u < 32 for u in op.writes))
            if (spec.is_load and mem_slots > 0) or is_addr_op:
                dst = op.writes[0] if op.writes else None
                hazard = (dst is None or dst in written or dst in read
                          or any(u in written for u in op.reads))
                if not hazard and all(reg_ready[u] <= cycle
                                      for u in op.reads):
                    if spec.is_load:
                        done = self.l2.access(int(op.addrs[0]),
                                              cycle + spec.latency)
                        mem_slots -= 1
                    else:
                        done = cycle + spec.latency
                    reg_ready[dst] = done
                    if done > self.last_done:
                        self.last_done = done
                    self.pre_issued.add(j)
                    self.stats.issued += 1
                    if self.obs.enabled:
                        self.obs.emit(Event(cycle, LANE_ISSUE,
                                            f"lane{self.lane_idx}", op,
                                            dur=done - cycle, arg="slip"))
                    budget -= 1
                    continue
            written.update(op.writes)
            read.update(op.reads)

    def next_event(self, cycle: int) -> int:
        if self.halted or self.waiting_barrier:
            return 1 << 62
        return cycle + 1


# -- random lane-mode programs ---------------------------------------------

# s3: this thread's 512-byte slice of ``buf``; s6/s7: masked offsets into
# it; s8/s9: addresses built from them; s10-s15: integer data;
# f1-f8: FP data; s4/s5: loop counter and trip count.
_IDX = ("s6", "s7")
_ADDR = ("s8", "s9")
_IDATA = tuple(f"s{i}" for i in range(10, 16))
_FDATA = tuple(f"f{i}" for i in range(1, 9))


@st.composite
def _item(draw):
    """One body item: a short op group (a list of assembly lines)."""
    def pick(regs):
        return draw(st.sampled_from(regs))

    kind = pick(["addr", "ld", "fld", "farith", "iarith", "st", "fst"])
    if kind == "addr":
        i = draw(st.integers(0, 1))
        step = 8 * draw(st.integers(1, 8))
        return [f"addi {_IDX[i]}, {_IDX[i]}, {step}",
                f"andi {_IDX[i]}, {_IDX[i]}, 504",
                f"add {_ADDR[i]}, s3, {_IDX[i]}"]
    if kind in ("ld", "fld", "st", "fst"):
        dst = pick(_IDATA if kind in ("ld", "st") else _FDATA)
        if draw(st.booleans()):
            mem = f"0({pick(_ADDR)})"
        else:
            mem = f"{8 * draw(st.integers(0, 63))}(s3)"
        return [f"{kind} {dst}, {mem}"]
    if kind == "farith":
        op = pick(["fadd", "fsub", "fmul"])
        return [f"{op} {pick(_FDATA)}, {pick(_FDATA)}, {pick(_FDATA)}"]
    op = pick(["add", "sub", "xor", "and", "mul"])
    return [f"{op} {pick(_IDATA)}, {pick(_IDATA)}, {pick(_IDATA)}"]


@st.composite
def lane_program(draw):
    """A random SPMD lane-mode program: counted loops in barrier- and
    ``vltcfg``-separated segments, with data-dependent forward
    branches inside the loop bodies."""
    lines = [".space buf 4096",
             "tid s1",
             "slli s2, s1, 9",
             "li s3, &buf",
             "add s3, s3, s2",
             "li s6, 0", "li s7, 8",
             "add s8, s3, s6", "add s9, s3, s7"]
    lines += [f"li {r}, {i * 3 + 1}" for i, r in enumerate(_IDATA)]
    label = 0
    for seg in range(draw(st.integers(1, 3))):
        lines += ["li s4, 0", f"li s5, {draw(st.integers(1, 6))}",
                  f"loop{seg}:"]
        for _ in range(draw(st.integers(2, 12))):
            if draw(st.integers(0, 4)) == 0:
                br = draw(st.sampled_from(["blt", "bge", "beq", "bne"]))
                a = draw(st.sampled_from(_IDATA))
                b = draw(st.sampled_from(_IDATA))
                lines.append(f"{br} {a}, {b}, skip{label}")
                for _ in range(draw(st.integers(1, 3))):
                    lines += draw(_item())
                lines.append(f"skip{label}:")
                label += 1
            else:
                lines += draw(_item())
        lines += ["addi s4, s4, 1", f"blt s4, s5, loop{seg}"]
        tail = draw(st.sampled_from(["", "barrier", "vltcfg", "both"]))
        if tail in ("barrier", "both"):
            lines.append("barrier")
        if tail in ("vltcfg", "both"):
            lines.append(f"vltcfg {draw(st.integers(0, 8))}")
    lines.append("halt")
    return "\n".join(lines), draw(st.integers(1, 8))


def _replay(core_cls, trace, cfg, traced):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine_mod, "LaneCore", core_cls)
        bus = None
        if traced:
            bus = EventBus()
            log = EventLog(kinds=_KINDS)
            bus.attach(log)
        result = run_traces(cfg, trace, obs=bus)
    events = None
    if traced:
        events = [(e.cycle, e.kind, e.unit, e.pc, e.dur, e.reason, e.arg)
                  for e in log.events]
    return result, events


def _depth(depth):
    return replace(VLT_SCALAR, name=f"VLT-d{depth}",
                   lane_core=replace(VLT_SCALAR.lane_core,
                                     decouple_depth=depth))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=lane_program())
def test_wakeup_matches_rescan(data):
    src, threads = data
    trace = Executor(assemble(src, memory_kib=64),
                     num_threads=threads).run()
    for depth in _DEPTHS:
        cfg = _depth(depth)
        want, want_events = _replay(RescanLaneCore, trace, cfg, True)
        got, got_events = _replay(LaneCore, trace, cfg, True)
        assert got == want, (depth, src)
        assert got_events == want_events, (depth, src)
        assert _replay(LaneCore, trace, cfg, False)[0] == want


def test_stalled_lanes_sleep():
    """A load-use chain keeps a lane stalled on the L2 with nothing to
    slip: production scans once per stall and the machine skips the
    stalled cycles, while the oracle steps and rescans every cycle."""
    src = "\n".join([".space buf 64", "li s3, &buf"]
                    + ["ld s10, 0(s3)", "add s3, s3, s10"] * 40
                    + ["halt"])
    trace = Executor(assemble(src, memory_kib=64)).run()
    counts = {}
    results = {}
    for cls in (RescanLaneCore, LaneCore):
        calls = {"step": 0, "slip": 0}

        class Counting(cls):
            def step(self, cycle):
                calls["step"] += 1
                super().step(cycle)

            def _slip(self, cycle, budget):
                calls["slip"] += 1
                super()._slip(cycle, budget)

        results[cls], _ = _replay(Counting, trace, _depth(48), False)
        counts[cls] = calls
    assert results[LaneCore] == results[RescanLaneCore]
    assert counts[RescanLaneCore]["step"] > results[LaneCore].cycles
    assert counts[LaneCore]["step"] * 4 < counts[RescanLaneCore]["step"]
    assert counts[LaneCore]["slip"] * 4 < counts[RescanLaneCore]["slip"]
