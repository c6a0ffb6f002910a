"""Reproduction benchmark: host cost of regenerating the paper's figures.

Usage (from the root of a checkout)::

    python3 reprobench/run.py --workload vector_threads --seed 1 \\
        --seconds 10 --trace 0

Each workload is a ``vlt-repro`` command a user types, run in a fresh
process with the default engines, no worker pool and, where it takes
one, a new empty cache directory.  With ``--trace 0`` the command runs
untraced and the end-to-end metrics are reported; with ``--trace 1``
it runs once untraced and once under ``traced.py`` and the per-layer
metrics are reported.  Every run's outputs are checked against
``goldens.json``; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The simulated kernels carry fixed data seeds, so ``--seed`` changes no
simulated input: every run of one commit must produce identical cycles
and only host time varies.  The seed names the run's scratch directory.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

#: the whole benchmark run must end within this many seconds
DEADLINE_S = 170.0

VECTOR_APPS = ("mpenc", "trfd", "multprec", "bt")
LANE_APPS = ("ocean", "barnes")

#: the paper's published values (ICPP 2006, Figures 3 and 6, Table 4)
PAPER_FIG3_BANDS = {2: (1.14, 2.15), 4: (1.40, 2.3)}
PAPER_FIG6 = {"radix": 2.0, "ocean": 2.2, "barnes": 1.1}
PAPER_PCT_VECT = {"mxm": 96, "sage": 94, "mpenc": 76, "trfd": 73,
                  "multprec": 71, "bt": 46, "radix": 6}

#: (fig3 JSON key, config, threads) of each app's Figure 3 runs
FIG3_RUNS = (("base", "base", 1), ("2", "V2-CMP", 2), ("4", "V4-CMP", 4))
FIG4_RUNS = (("base", "base", 1), ("VLT-2", "V2-CMP", 2),
             ("VLT-4", "V4-CMP", 4))
FIG5_RUNS = (("V2-SMT", 2), ("V2-CMP", 2), ("V4-SMT", 4), ("V4-CMT", 4),
             ("V4-CMP", 4), ("V4-CMP-h", 4))
FIG6_RUNS = (("CMT", "CMT", 4), ("VLT", "VLT-scalar", 8))

#: workload -> vlt-repro arguments; CACHE stands for the run's fresh
#: cache directory
CACHE = "<cache>"
#: figure data file the fig workloads write (``--json``), so every
#: spec's cycles can be checked exactly
JSON_OUT = "out.json"
WORKLOADS = {
    "vector_threads": ["fig3", "fig4", "fig5", "--json", JSON_OUT],
    "lane_threads": ["fig6", "--apps", ",".join(LANE_APPS),
                     "--json", JSON_OUT],
    "trace_reuse": ["mix", "--cache-dir", CACHE],
}

#: setup repetitions whose median is ``setup_s``
SETUP_REPEATS = {"vector_threads": 5, "lane_threads": 5, "trace_reuse": 3}

#: per-layer rows that must repeat exactly between runs of one commit
EXACT_COUNTS = ("harness.replays", "harness.unique_runs", "timing.sim_cycles",
                "timing.lane.step.calls", "functional.generate.ops",
                "functional.materialise.ops")

#: span name -> the self-time row it is charged to
SELF_ROWS = {
    "harness.main": "harness.self.s",
    "harness.experiment": "harness.self.s",
    "harness.run": "harness.self.s", "harness.report": "harness.report.s",
    "workloads.program": "workloads.program.s",
    "verify.check": "verify.check.s",
    "functional.trace_for": "functional.trace_for.s",
    "functional.generate": "functional.generate.s",
    "functional.materialise": "functional.materialise.s",
    "trace_cache.load": "trace_cache.load.s",
    "trace_cache.store": "trace_cache.store.s",
    "result_cache.load": "trace_cache.load.s",
    "result_cache.store": "trace_cache.store.s",
    "timing.setup": "timing.setup.s", "timing.stats": "timing.stats.s",
    "timing.replay": "timing.loop.s",
}
UNIT_ROWS = {"su.step": "timing.su.step", "next_event": "timing.next_event",
             "vu.step": "timing.vu.step", "lane.step": "timing.lane.step",
             "l2": "timing.l2"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------

class Runner:
    """Starts the benchmark's child processes and measures each one."""

    def __init__(self, root: Path, work: Path,
                 deadline_s: float = DEADLINE_S) -> None:
        self.work = work
        self.deadline = time.perf_counter() + deadline_s
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self._n = 0

    def run(self, argv: List[str], tag: str) -> Dict[str, object]:
        """Run ``argv`` in the work directory; wall, CPU and peak RSS.

        The child is killed if it would overrun the benchmark deadline.
        """
        self._n += 1
        out = self.work / f"{self._n:02d}-{tag}.out"
        left = self.deadline - time.perf_counter()
        if left <= 1:
            raise TimeoutError(f"no time left to start {tag}")
        with open(out, "wb") as fh, \
                open(self.work / f"{self._n:02d}-{tag}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=fh, stderr=err)
            watchdog = threading.Timer(left, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.work / f"{self._n:02d}-{tag}.err").read_text(
                errors="replace")[-2000:]
            log(f"{tag}: exit {proc.returncode}\n{tail}")
        return {"rc": proc.returncode, "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out.read_text(errors="replace")}

    def repro(self, args: List[str], tag: str, traced: Optional[Path] = None):
        if traced is None:
            argv = [sys.executable, "-m", "repro.harness.cli"] + args
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(traced),
                    "--"] + args
        return self.run(argv, tag)

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

class Checker:
    """Counts checked outputs and the ones missing or wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def eq(self, label: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            if self.failed <= 20:
                log(f"MISMATCH {label}: got {got!r}, want {want!r}")


def dig(data, *keys):
    for k in keys:
        if not isinstance(data, dict) or k not in data:
            return None
        data = data[k]
    return data


def spec_label(app: str, config: str, threads: int,
               scalar: bool = False) -> str:
    return f"{app}@{config}x{threads}" + ("/scalar" if scalar else "")


def check_figures(chk: Checker, workload: str, data, gold) -> None:
    """Check figure JSON (``--json``) against the golden cycles."""
    specs = gold["specs"]

    def cycles(label):
        return dig(specs, label, "cycles")

    if workload == "lane_threads":
        for app in LANE_APPS:
            for key, cfg, thr in FIG6_RUNS:
                chk.eq(f"fig6 {app} {key}",
                       dig(data, "fig6", "cycles", app, key),
                       cycles(spec_label(app, cfg, thr, scalar=True)))
        return
    for app in VECTOR_APPS:
        for key, cfg, thr in FIG3_RUNS:
            chk.eq(f"fig3 {app} {key}", dig(data, "fig3", "cycles", app, key),
                   cycles(spec_label(app, cfg, thr)))
        for key, cfg, thr in FIG4_RUNS:
            g = specs.get(spec_label(app, cfg, thr), {})
            want = [{"busy": g.get("vu_busy"),
                     "partly_idle": g.get("vu_partly_idle"),
                     "stalled": g.get("vu_stalled"),
                     "all_idle": g.get("vu_all_idle")}, g.get("cycles")]
            chk.eq(f"fig4 {app} {key}", dig(data, "fig4", "data", app, key),
                   want)
        base = cycles(spec_label(app, "base", 1))
        chk.eq(f"fig5 {app} base", dig(data, "fig5", "base_cycles", app),
               base)
        for cfg, thr in FIG5_RUNS:
            c = cycles(spec_label(app, cfg, thr))
            chk.eq(f"fig5 {app} {cfg}", dig(data, "fig5", "speedups", app, cfg),
                   base / c if base and c else None)


MIX_TITLE = re.compile(r"^(\w+): (\d+) dynamic instructions \(top \d+\)$")


def parse_mix(text: str) -> Dict[str, Dict[str, object]]:
    """``app -> {"total": n, "top": [[opcode, count], ...]}``."""
    out: Dict[str, Dict[str, object]] = {}
    cur = None
    for line in text.splitlines():
        m = MIX_TITLE.match(line)
        if m:
            cur = {"total": int(m.group(2)), "top": []}
            out[m.group(1)] = cur
            continue
        parts = line.split()
        if cur is not None and len(parts) == 3 and parts[1].isdigit():
            cur["top"].append([parts[0], int(parts[1])])
        elif not parts:
            cur = None
    return out


def check_mix(chk: Checker, text: str, gold) -> None:
    got = parse_mix(text)
    for app, want in gold["mix"].items():
        chk.eq(f"mix {app}", got.get(app), want)


def check_replays(chk: Checker, replays, gold) -> None:
    """Every traced replay must reproduce its spec's simulated stats."""
    for r in replays:
        chk.eq(f"replay {r['spec']}", r.get("result"),
               gold["specs"].get(r["spec"]))


def check_command(chk: Checker, workload: str, proc, gold,
                  work: Path) -> None:
    """Exit status plus every output the command writes.

    The figure data file is removed once read, so a later command that
    fails to write one cannot pass on a stale copy.
    """
    chk.eq(f"{workload} exit status", proc["rc"], 0)
    if workload == "trace_reuse":
        check_mix(chk, proc["stdout"], gold)
        return
    path = work / JSON_OUT
    try:
        data = json.loads(path.read_text())
        path.unlink()
    except (OSError, ValueError):
        data = {}
    check_figures(chk, workload, data, gold)
    proc["data"] = data


# --------------------------------------------------------------------------
# end-to-end figures
# --------------------------------------------------------------------------

def band_distance(s: float, lo: float, hi: float) -> float:
    if s < lo:
        return (lo - s) / lo
    if s > hi:
        return (s - hi) / hi
    return 0.0


def paper_err(workload: str, proc, vect: Optional[Dict[str, float]]) -> float:
    """Mean relative distance of the simulated results from the paper.

    A result the command failed to produce counts as a distance of 1.
    """
    data = proc.get("data") or {}
    errs: List[float] = []
    if workload == "vector_threads":
        for app in VECTOR_APPS:
            c = dig(data, "fig3", "cycles", app) or {}
            for thr, (lo, hi) in PAPER_FIG3_BANDS.items():
                ok = c.get("base") and c.get(str(thr))
                errs.append(band_distance(c["base"] / c[str(thr)], lo, hi)
                            if ok else 1.0)
    elif workload == "lane_threads":
        for app in LANE_APPS:
            c = dig(data, "fig6", "cycles", app) or {}
            paper = PAPER_FIG6[app]
            errs.append(abs(c["CMT"] / c["VLT"] - paper) / paper
                        if c.get("CMT") and c.get("VLT") else 1.0)
    else:
        for app, paper in PAPER_PCT_VECT.items():
            errs.append(abs(vect[app] - paper) / paper
                        if vect and app in vect else 1.0)
    return sum(errs) / len(errs)


def vect_shares(runner: Runner, cache: Path) -> Optional[Dict[str, float]]:
    """Paper Table 4's %Vect of every cached single-thread trace."""
    p = runner.run([sys.executable, str(HERE / "vect_share.py"), str(cache)],
                   "vect-share")
    if p["rc"] != 0:
        return None
    return json.loads(p["stdout"])


def unique_ops(workload: str, gold) -> int:
    """Dynamic trace ops of the workload's unique runs (from goldens)."""
    if workload == "trace_reuse":
        return sum(int(v["total"]) for v in gold["mix"].values())
    if workload == "vector_threads":
        labels = {spec_label(a, c, t) for a in VECTOR_APPS
                  for c, t in [("base", 1)] + list(FIG5_RUNS)}
    else:
        labels = {spec_label(a, c, t, scalar=True) for a in LANE_APPS
                  for _, c, t in FIG6_RUNS}
    return sum(gold["ops"][lbl] for lbl in labels)


def command_args(workload: str, cache: Optional[Path]) -> List[str]:
    args = list(WORKLOADS[workload])
    return [str(cache) if a == CACHE else a for a in args]


def run_workload(runner: Runner, workload: str, chk: Checker, gold,
                 tag: str, traced_dir: Optional[Path] = None):
    """One execution of the workload (with its cache fill, if any).

    Returns (fill process or None, timed process, traced-output paths).
    """
    cache = None
    fill = None
    traced: List[Path] = []
    if workload == "trace_reuse":
        cache = runner.fresh_dir(f"cache-{tag}")
        if traced_dir is not None:
            traced.append(traced_dir / f"{tag}-fill.json")
        fill = runner.repro(command_args(workload, cache), f"{tag}-fill",
                            traced[0] if traced else None)
        check_command(chk, workload, fill, gold, runner.work)
    if traced_dir is not None:
        traced.append(traced_dir / f"{tag}.json")
    proc = runner.repro(command_args(workload, cache), tag,
                        traced[-1] if traced else None)
    check_command(chk, workload, proc, gold, runner.work)
    return fill, proc, traced


def end_to_end(runner: Runner, workload: str, seconds: int, chk: Checker,
               gold) -> Dict[str, Dict[str, object]]:
    """Set-up median, then the command repeated for ``seconds``.

    The command runs at least once and is started again while less
    than ``seconds`` have passed; the figures are medians over repeats.
    """
    setups: List[float] = []
    last_cache = None
    for i in range(SETUP_REPEATS[workload]):
        if workload == "trace_reuse":
            cache = runner.fresh_dir(f"setup-cache-{i}")
            p = runner.repro(command_args(workload, cache), f"setup-{i}")
            check_command(chk, workload, p, gold, runner.work)
            last_cache = cache
        else:
            p = runner.run([sys.executable, "-c", "import repro.harness.cli"],
                           f"setup-{i}")
            chk.eq("setup import", p["rc"], 0)
        setups.append(p["wall"])

    procs = []
    stop = time.perf_counter() + seconds
    while not procs or time.perf_counter() < stop:
        p = runner.repro(command_args(workload, last_cache),
                         f"timed-{len(procs)}")
        check_command(chk, workload, p, gold, runner.work)
        procs.append(p)

    wall = statistics.median(p["wall"] for p in procs)
    vect = vect_shares(runner, last_cache) \
        if workload == "trace_reuse" else None
    if workload == "trace_reuse":
        chk.eq("vect shares", vect is not None, True)
    err = paper_err(workload, procs[0], vect)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(statistics.median(p["cpu"] for p in procs), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(unique_ops(workload, gold) / wall, "1/s"),
        "peak_rss_mb": metric(statistics.median(p["rss_mb"] for p in procs),
                              "MB"),
        "paper_err": metric(err, "ratio"),
    }


# --------------------------------------------------------------------------
# per-layer figures
# --------------------------------------------------------------------------

def layer_rows(dumps: List[dict], traced_wall: float) -> Dict[str, float]:
    """Fold the traced processes' spans and unit counters into rows."""
    rows: Dict[str, float] = {r: 0.0 for r in set(SELF_ROWS.values())}
    count = {k: 0 for k in ("program", "generate", "generate_ops",
                            "trace_for", "trace_for_hits", "materialise_ops",
                            "load", "load_hits", "load_bytes", "store",
                            "store_bytes", "result_load", "result_hits")}
    replay_s = 0.0
    replays: List[dict] = []
    units = {k: [0, 0.0] for k in UNIT_ROWS}
    for d in dumps:
        spans = d["spans"]
        child = [0.0] * len(spans)
        gen_under = [False] * len(spans)
        for sid, parent, name, spec, t0, t1, attrs in spans:
            if parent is not None:
                child[parent] += t1 - t0
        # a trace_for call that generated is the parent of a generate span
        for sid, parent, name, spec, t0, t1, attrs in spans:
            if name == "functional.generate" and parent is not None:
                gen_under[parent] = True
        for sid, parent, name, spec, t0, t1, attrs in spans:
            dur = t1 - t0
            rows[SELF_ROWS[name]] += dur - child[sid]
            if name == "timing.replay":
                replay_s += dur
            elif name == "workloads.program":
                count["program"] += 1
            elif name == "functional.generate":
                count["generate"] += 1
                count["generate_ops"] += attrs.get("ops", 0)
            elif name == "functional.trace_for":
                count["trace_for"] += 1
                count["trace_for_hits"] += not gen_under[sid]
            elif name == "functional.materialise":
                count["materialise_ops"] += attrs.get("ops", 0)
            elif name == "trace_cache.load":
                count["load"] += 1
                count["load_hits"] += bool(attrs.get("hit"))
                count["load_bytes"] += attrs.get("bytes", 0) \
                    if attrs.get("hit") else 0
            elif name == "trace_cache.store":
                count["store"] += 1
                count["store_bytes"] += attrs.get("bytes", 0)
            elif name == "result_cache.load":
                count["result_load"] += 1
                count["result_hits"] += bool(attrs.get("hit"))
        for k, (calls, self_s) in d["units"].items():
            units[k][0] += calls
            units[k][1] += self_s
        replays.extend(d["replays"])

    # the replay span's self time is the machine loop plus unit calls
    for k, (calls, self_s) in units.items():
        rows[UNIT_ROWS[k] + ".s"] = self_s
        rows[UNIT_ROWS[k] + ".calls"] = calls
        rows["timing.loop.s"] -= self_s
    self_total = sum(v for k, v in rows.items() if k.endswith(".s"))
    rows["unattributed.s"] = traced_wall - self_total
    rows["timing.replay.s"] = replay_s

    def ratio(a, b):
        return a / b if b else 0.0

    unique = {}
    for r in replays:
        unique.setdefault(r["spec"], r)
    cycles = sum(r["cycles"] for r in replays)
    lane_cycles = sum(r["cycles"] * r["lanes"] for r in replays)
    rows.update({
        "harness.replays": len(replays),
        "harness.unique_runs": len(unique),
        "harness.replays_per_run": ratio(len(replays), len(unique)),
        "workloads.program.calls": count["program"],
        "functional.generate.calls": count["generate"],
        "functional.generate.ops": count["generate_ops"],
        "functional.generate.ops_per_s": ratio(
            count["generate_ops"], rows["functional.generate.s"]),
        "functional.trace_for.calls": count["trace_for"],
        "functional.trace_for.hit_ratio": ratio(count["trace_for_hits"],
                                                count["trace_for"]),
        "functional.materialise.ops": count["materialise_ops"],
        "trace_cache.load.calls": count["load"],
        "trace_cache.load.bytes": count["load_bytes"],
        "trace_cache.store.calls": count["store"],
        "trace_cache.store.bytes": count["store_bytes"],
        "trace_cache.hit_ratio": ratio(count["load_hits"], count["load"]),
        "result_cache.hit_ratio": ratio(count["result_hits"],
                                        count["result_load"]),
        "timing.sim_cycles": cycles,
        "timing.replay.cycles_per_s": ratio(cycles, replay_s),
        "timing.replay.ops_per_s": ratio(sum(r["ops"] for r in replays),
                                         replay_s),
        "timing.loop.iters_per_cycle": ratio(sum(r["iters"] for r in replays),
                                             cycles),
        "timing.lane.steps_per_cycle": ratio(
            sum(r["lane_steps"] for r in replays), lane_cycles),
    })
    rows.update(model_rows([r["result"] for r in unique.values()
                            if r.get("result")]))
    return rows


def model_rows(results: List[dict]) -> Dict[str, float]:
    """Simulated counters summed over the workload's unique runs."""
    def total(k):
        return sum(r[k] for r in results)

    def ratio(a, b):
        return a / b if b else 0.0

    vu_total = sum(total(k) for k in ("vu_busy", "vu_stalled",
                                      "vu_partly_idle", "vu_all_idle"))
    return {
        "model.vu.busy_frac": ratio(total("vu_busy"), vu_total),
        "model.vu.stalled_frac": ratio(total("vu_stalled"), vu_total),
        "model.l2.bank_conflict_cycles": total("l2_bank_conflict_cycles"),
        "model.su.l1d_miss_rate": ratio(total("su_l1d_misses"),
                                        total("su_l1d_accesses")),
        "model.su.mispredict_rate": ratio(total("su_branch_mispredicts"),
                                          total("su_branch_lookups")),
        "model.lane.load_stall_cycles": total("lane_load_stall_cycles"),
        "model.lane.icache_miss_rate": ratio(total("lane_icache_misses"),
                                             total("lane_icache_accesses")),
    }


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_exact_counts(chk: Checker, root: Path, workload: str,
                       rows: Dict[str, float]) -> None:
    """Counts must repeat exactly across runs of one source tree.

    The first traced run of a tree records them under ``.benchwork``;
    every later traced run of the same tree must agree.
    """
    names = EXACT_COUNTS + tuple(k for k in sorted(rows)
                                 if k.startswith("model."))
    mine = {k: rows[k] for k in names}
    path = (root / ".benchwork" / "counts"
            / f"{workload}-{source_digest(root)}.json")
    if path.exists():
        seen = json.loads(path.read_text())
        for k in names:
            chk.eq(f"exact count {k}", mine[k], seen.get(k))
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(mine, indent=1, sort_keys=True))
    os.replace(tmp, path)


def per_layer(runner: Runner, workload: str, chk: Checker, gold,
              root: Path) -> Dict[str, Dict[str, object]]:
    """Untraced pass, then traced pass; rows from the traced one."""
    fill, plain, _ = run_workload(runner, workload, chk, gold, "plain")
    plain_wall = plain["wall"] + (fill["wall"] if fill else 0.0)
    traced_dir = runner.fresh_dir("traced")
    fill, proc, paths = run_workload(runner, workload, chk, gold, "traced",
                                     traced_dir)
    walls = [proc["wall"]] + ([fill["wall"]] if fill else [])
    dumps = []
    for p in paths:
        try:
            dumps.append(json.loads(p.read_text()))
        except (OSError, ValueError):
            chk.eq(f"traced output {p.name}", None, "present")
    for d in dumps:
        check_replays(chk, d["replays"], gold)
    rows = layer_rows(dumps, sum(walls))
    rows["trace.wall_s"] = sum(walls)
    rows["trace.overhead_s"] = sum(walls) - plain_wall
    check_exact_counts(chk, root, workload, rows)
    rows["failed_frac"] = chk.failed / chk.attempted
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(rows.items())}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("cycles"):
        return "cycles"
    if name.endswith(("ratio", "_frac", "_rate", "_per_cycle", "_per_run")):
        return "ratio"
    return "count"


# --------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "harness" / "cli.py").is_file():
        log(f"{root}: no src/repro here; run from the root of a checkout")
        return 2
    gold = json.loads(GOLDENS.read_text())
    work = root / ".benchwork" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work)
    chk = Checker()
    try:
        if args.trace:
            metrics = per_layer(runner, args.workload, chk, gold, root)
        else:
            metrics = end_to_end(runner, args.workload, args.seconds, chk,
                                 gold)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": chk.failed == 0,
                      "attempted": chk.attempted, "failed": chk.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
