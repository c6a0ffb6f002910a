"""Run one ``vlt-repro`` command with per-layer spans, then dump them.

Usage::

    PYTHONPATH=src python3 reprobench/traced.py OUT.json -- fig3 fig4 fig5

The wrappers below are installed from outside the program, at class or
module-attribute level, around the public call of each layer:

* ``harness``   -- ``cli.main``, ``cli.run_experiment_data`` and
  ``cli.instruction_mix`` (one per experiment), ``experiments._run``
  (one timing run of one spec) and the ``cli._RENDERERS`` report
  functions;
* ``workloads`` -- ``Workload.program`` and the ``repro.verify.check``
  lint it gates every build through;
* ``functional`` -- ``repro.timing.run.trace_for``, ``Executor.run``,
  ``FastExecutor.run`` and the ``ThreadTrace.ops`` materialisation;
* ``trace_cache`` -- ``TraceCache`` trace/result loads and stores;
* ``timing``    -- ``Machine`` construction, ``run_loop`` and result
  assembly.

Each of those calls records one span (name, parent, the spec it
serves, start, end).  Per-cycle unit calls -- ``ScalarUnit.step`` /
``next_event``, ``VectorUnit.step``, ``LaneCore.step`` / ``next_event``
and the ``BankedL2`` accesses -- would be millions of spans (4.0 million
for ``vlt-repro fig3 fig4 fig5``), so they are folded into a call count
and a self time per unit instead.
The L2 is called from inside the SU, VU and lane-core steps; its time is
subtracted from theirs.  Spans stay in memory and are written, together
with the per-replay records and the simulated statistics of every run,
to OUT.json when the command returns.
"""

from __future__ import annotations

import json
import sys
import time

pc = time.perf_counter


class Tracer:
    """Span store plus per-unit call aggregates for one process."""

    def __init__(self) -> None:
        #: [id, parent id, name, spec, t0, t1, attrs]
        self.spans = []
        self._open = []
        #: label of the run spec the current calls serve
        self.spec = None
        #: unit name -> [calls, self seconds]
        self.units = {}
        #: child-time accumulators of the open unit calls
        self._ustack = [0.0]
        #: one record per Machine.run_loop call
        self.replays = []
        #: id(machine) -> dynamic ops it was built to replay
        self._machine_ops = {}

    # -- spans ----------------------------------------------------------------

    def span(self, fn, name, after=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``after(attrs, args, result)`` fills span attributes once the
        call has returned, outside the timed interval.
        """
        tr = self

        def wrapper(*args, **kwargs):
            rec = [len(tr.spans), tr._open[-1] if tr._open else None,
                   name, tr.spec, 0.0, 0.0, {}]
            tr.spans.append(rec)
            tr._open.append(rec[0])
            rec[4] = pc()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = pc()
                tr._open.pop()
            if after is not None:
                after(rec[6], args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-cycle units ------------------------------------------------------

    def unit(self, fn, key):
        """Wrap a per-cycle unit call: count it and add its self time."""
        acc = self.units.setdefault(key, [0, 0.0])
        stack = self._ustack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                child = stack.pop()
                acc[0] += 1
                acc[1] += dt - child
                stack[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper


def install(tr: Tracer) -> None:
    """Install every layer wrapper onto the imported ``repro`` modules."""
    from repro import verify
    from repro.functional import executor, fast, trace as ftrace
    from repro.functional.trace_cache import TraceCache
    from repro.harness import cli
    from repro.harness import experiments as E
    from repro.timing import run as trun
    from repro.timing.l2 import BankedL2
    from repro.timing.lane_core import LaneCore
    from repro.timing.machine import Machine
    from repro.timing.scalar_unit import ScalarUnit
    from repro.timing.vcl import VectorUnit
    from repro.workloads.base import Workload

    # harness -----------------------------------------------------------------
    cli.run_experiment_data = tr.span(cli.run_experiment_data,
                                      "harness.experiment")
    cli.instruction_mix = tr.span(cli.instruction_mix, "harness.experiment")
    for key, fn in list(cli._RENDERERS.items()):
        cli._RENDERERS[key] = tr.span(fn, "harness.report")

    orig_run = E._run

    def run_spec(app, cfg, threads, scalar_only=False, runs=None):
        prev = tr.spec
        tr.spec = (f"{app}@{cfg.name}x{threads}"
                   + ("/scalar" if scalar_only else ""))
        try:
            return traced_run(app, cfg, threads, scalar_only, runs)
        finally:
            tr.spec = prev

    traced_run = tr.span(orig_run, "harness.run")
    E._run = run_spec

    # workloads ---------------------------------------------------------------
    orig_program = Workload.program
    traced_program = tr.span(orig_program, "workloads.program")

    def program(self, *args, **kwargs):
        if tr.spec is None:
            tr.spec = self.name
            try:
                return traced_program(self, *args, **kwargs)
            finally:
                tr.spec = None
        return traced_program(self, *args, **kwargs)

    Workload.program = program
    verify.check = tr.span(verify.check, "verify.check")

    # functional --------------------------------------------------------------
    def trace_ops(attrs, args, out):
        attrs["ops"] = out.total_ops()

    trun.trace_for = tr.span(trun.trace_for, "functional.trace_for")
    executor.Executor.run = tr.span(executor.Executor.run,
                                    "functional.generate", trace_ops)
    fast.FastExecutor.run = tr.span(fast.FastExecutor.run,
                                    "functional.generate", trace_ops)
    ops_prop = ftrace.ThreadTrace.ops

    def materialised(attrs, args, out):
        attrs["ops"] = len(out)

    materialise = tr.span(ops_prop.fget, "functional.materialise",
                          materialised)

    def ops_get(self):
        if self._ops is not None:
            return self._ops
        return materialise(self)

    ftrace.ThreadTrace.ops = property(ops_get, ops_prop.fset)

    # trace cache -------------------------------------------------------------
    def trace_file(attrs, args, out):
        cache, digest, threads = args[0], args[1], args[2]
        attrs["hit"] = out is not None
        path = cache.trace_path(digest, threads)
        attrs["bytes"] = path.stat().st_size if path.exists() else 0

    def result_file(attrs, args, out):
        attrs["hit"] = out is not None

    TraceCache.load_trace = tr.span(TraceCache.load_trace,
                                    "trace_cache.load", trace_file)
    TraceCache.store_trace = tr.span(TraceCache.store_trace,
                                     "trace_cache.store", trace_file)
    TraceCache.load_result = tr.span(TraceCache.load_result,
                                     "result_cache.load", result_file)
    TraceCache.store_result = tr.span(TraceCache.store_result,
                                      "result_cache.store")

    # timing ------------------------------------------------------------------
    orig_init = Machine.__init__
    traced_init = tr.span(orig_init, "timing.setup")

    def init(self, cfg, traces, *args, **kwargs):
        traced_init(self, cfg, traces, *args, **kwargs)
        tr._machine_ops[id(self)] = sum(len(t) for t in traces)

    Machine.__init__ = init

    traced_loop = tr.span(Machine.run_loop, "timing.replay")

    def run_loop(self):
        before = {k: v[0] for k, v in tr.units.items()}
        cycles = traced_loop(self)
        calls = {k: v[0] - before[k] for k, v in tr.units.items()}
        tr.replays.append({
            "spec": tr.spec, "cycles": cycles,
            "ops": tr._machine_ops.pop(id(self)),
            # every SU and every lane core steps once per loop iteration
            "iters": (calls["su.step"] + calls["lane.step"])
            // (len(self.sus) + len(self.lane_cores)),
            "lanes": len(self.lane_cores),
            "lane_steps": calls["lane.step"],
        })
        return cycles

    Machine.run_loop = run_loop

    def stats_after(attrs, args, out):
        tr.replays[-1]["result"] = model_counters(out)

    Machine._result = tr.span(Machine._result, "timing.stats", stats_after)

    ScalarUnit.step = tr.unit(ScalarUnit.step, "su.step")
    ScalarUnit.next_event = tr.unit(ScalarUnit.next_event, "next_event")
    VectorUnit.step = tr.unit(VectorUnit.step, "vu.step")
    LaneCore.step = tr.unit(LaneCore.step, "lane.step")
    LaneCore.next_event = tr.unit(LaneCore.next_event, "next_event")
    BankedL2.access = tr.unit(BankedL2.access, "l2")
    BankedL2.vector_access = tr.unit(BankedL2.vector_access, "l2")


def model_counters(r) -> dict:
    """The simulated statistics of one run that the goldens pin."""
    u = r.utilization
    sus = r.scalar_units
    lanes = r.lane_cores
    return {
        "cycles": r.cycles,
        "vu_busy": u.busy, "vu_stalled": u.stalled,
        "vu_partly_idle": u.partly_idle, "vu_all_idle": u.all_idle,
        "l2_bank_conflict_cycles": r.l2_bank_conflict_cycles,
        "su_l1d_accesses": sum(s.l1d_accesses for s in sus),
        "su_l1d_misses": sum(s.l1d_misses for s in sus),
        "su_branch_lookups": sum(s.branch_lookups for s in sus),
        "su_branch_mispredicts": sum(s.branch_mispredicts for s in sus),
        "lane_load_stall_cycles": sum(c.load_stall_cycles for c in lanes),
        "lane_icache_accesses": sum(c.icache_accesses for c in lanes),
        "lane_icache_misses": sum(c.icache_misses for c in lanes),
    }


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py OUT.json -- <vlt-repro args>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    from repro.harness import cli
    tr = Tracer()
    install(tr)
    root = tr.span(cli.main, "harness.main")
    try:
        rc = root(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"spans": tr.spans, "units": tr.units,
                       "replays": tr.replays}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
