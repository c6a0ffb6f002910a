"""Lane-core (scalar threads on lanes) timing model."""

from dataclasses import replace

import pytest

from repro.isa import assemble
from repro.timing import simulate
from repro.timing.config import CMT, VLT_SCALAR
from repro.workloads import get_workload


def run_lanes(src, threads=1, cfg=VLT_SCALAR):
    prog = assemble(src)
    return simulate(prog, cfg, num_threads=threads)


class TestBasics:
    def test_single_thread_completes(self):
        r = run_lanes("""
        li s1, 0
        li s2, 50
        loop:
        addi s1, s1, 1
        blt s1, s2, loop
        halt
        """)
        assert r.cycles > 50
        assert r.lane_cores[0].issued > 100

    def test_eight_threads_one_per_lane(self):
        src = """
        tid s1
        li s2, 0
        li s3, 100
        loop:
        addi s2, s2, 1
        blt s2, s3, loop
        barrier
        halt
        """
        r = run_lanes(src, threads=8)
        assert sum(1 for lc in r.lane_cores if lc.issued > 0) == 8

    def test_vector_op_rejected(self):
        src = """
        li s1, 8
        setvl s2, s1
        vadd.vv v1, v2, v3
        halt
        """
        with pytest.raises(RuntimeError, match="scalar lane-core"):
            run_lanes(src)

    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError):
            run_lanes("halt", threads=9)


class TestInOrderBehaviour:
    def test_two_wide_issue_bound(self):
        body = "\n".join("add s3, s1, s2" if i % 2 else "add s4, s1, s2"
                         for i in range(100))
        r = run_lanes(f"li s1, 1\nli s2, 2\n{body}\nhalt")
        # 100 independent adds on a 2-wide in-order core: >= 50 cycles
        assert r.cycles >= 50

    def test_load_use_stall_recorded(self):
        src = """
        .i64 x 5
        li s1, &x
        ld s2, 0(s1)
        add s3, s2, s2
        halt
        """
        r = run_lanes(src)
        assert r.lane_cores[0].load_stall_cycles > 0

    def test_loads_have_l2_latency(self):
        # dependent pointer-chase: each load waits ~hit latency
        chase = "\n".join("ld s2, 0(s2)" for _ in range(20))
        src = f"""
        .i64 p 64
        li s2, &p
        st s2, 0(s2)
        {chase}
        halt
        """
        r = run_lanes(src)
        assert r.cycles >= 20 * 10      # 10-cycle L2 hits, serialised


class TestDecoupledSlip:
    def _warm(self, body, data=""):
        from tests.conftest import warm_cycles
        return warm_cycles(body, cfg=VLT_SCALAR, data=data)

    def test_independent_loads_pipeline(self):
        # interleaved: load feeds an FP chain; later loads slip ahead
        body = ["li s1, &x"]
        for i in range(16):
            body.append(f"fld f{1 + i % 8}, {i * 8}(s1)")
            body.append(f"fadd f9, f9, f{1 + i % 8}")
        warm = self._warm("\n".join(body), data=".space x 256")
        # without slip each fadd waits ~10 cycles: >= 160 (+ barrier 30).
        # with slip the loads run ahead and the chain costs ~3 each.
        assert warm < 150

    def test_slip_respects_true_dependence(self):
        # the second load's address depends on the first load's result;
        # it must NOT slip ahead of it
        body = """
        li s1, &p
        ld s2, 0(s1)
        ld s3, 0(s2)
        add s4, s3, s3
        """
        warm = self._warm(body, data=".i64 p 64\n.i64 q 123")
        # two serialised L2 hits (barrier overhead cancels between
        # consecutive phases)
        assert warm >= 20

    def test_slip_address_arithmetic_runs_ahead(self):
        # pointer increments between loads do not serialise the stream
        # (the compiler also rotates the load destinations, so no WAR)
        body = ["li s1, &x"]
        for i in range(16):
            body.append(f"fld f{1 + i % 8}, 0(s1)")
            body.append(f"fadd f9, f9, f{1 + i % 8}")
            body.append("addi s1, s1, 8")
        warm = self._warm("\n".join(body), data=".space x 256")
        assert warm < 16 * 10

    def test_war_register_reuse_blocks_slip(self):
        # with a single rotating register the next load's destination is
        # still read by the stalled consumer: slip must hold it back and
        # the loads serialise at the L2 latency
        body = ["li s1, &x"]
        for i in range(16):
            body.append("fld f1, 0(s1)")
            body.append("fadd f9, f9, f1")
            body.append("addi s1, s1, 8")
        warm = self._warm("\n".join(body), data=".space x 256")
        assert warm >= 16 * 10

    def test_ocean_cycles_pinned_per_depth(self):
        # EXPERIMENTS.md pins only the default depth (48); pin the
        # others so a slip change cannot hide behind the default window
        prog = get_workload("ocean").program(scalar_only=True)
        cycles = {}
        for depth in (0, 1, 8, 48):
            cfg = replace(VLT_SCALAR, name=f"VLT-d{depth}",
                          lane_core=replace(VLT_SCALAR.lane_core,
                                            decouple_depth=depth))
            cycles[depth] = simulate(prog, cfg, num_threads=8).cycles
        assert cycles == {0: 20515, 1: 20157, 8: 19469, 48: 19256}


class TestICache:
    def test_small_loop_hits_icache(self):
        src = """
        li s1, 0
        li s2, 500
        loop:
        addi s1, s1, 1
        blt s1, s2, loop
        halt
        """
        r = run_lanes(src)
        lc = r.lane_cores[0]
        assert lc.icache_misses <= 2


class TestAgainstCMT:
    def test_barrier_synchronises_lane_threads(self):
        src = """
        tid s1
        li s2, 0
        muli s3, s1, 40
        addi s3, s3, 10
        loop:
        addi s2, s2, 1
        blt s2, s3, loop
        barrier
        halt
        """
        r = run_lanes(src, threads=8)
        # all finish at/after the slowest thread's barrier
        assert max(r.thread_finish) - min(r.thread_finish) < 100
        assert r.barrier_count == 1

    def test_cmt_runs_scalar_threads_on_sus(self):
        src = """
        li s2, 0
        li s3, 200
        loop:
        addi s2, s2, 1
        blt s2, s3, loop
        barrier
        halt
        """
        r = run_lanes(src, threads=4, cfg=CMT)
        assert not r.lane_cores
        assert sum(su.issued for su in r.scalar_units) > 800
