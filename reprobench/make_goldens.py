"""Pin the outputs the benchmark checks every run against.

Usage (from the root of a checkout)::

    python3 reprobench/make_goldens.py

Runs, traced, ``vlt-repro fig3 fig4 fig5``, the full ``vlt-repro fig6``
and a cold ``vlt-repro mix`` and writes ``goldens.json`` next to this
file:

* ``specs`` -- the simulated statistics of every unique run spec of
  Figures 3-6 (34 specs): cycles, vector-unit datapath buckets, L2 bank
  conflicts, SU cache and branch counters, lane-core counters;
* ``ops``   -- the dynamic trace ops each spec replays;
* ``mix``   -- the per-app opcode histograms the mix report prints.

Before writing, the Figure 3, 5 and 6 numbers are checked against the
tables in EXPERIMENTS.md, and duplicate replays of one spec must agree.
Regenerate only for a change that is meant to alter simulated results.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import (FIG5_RUNS, GOLDENS, VECTOR_APPS, Runner, parse_mix,
                 spec_label)

ALL_SCALAR_APPS = ("radix", "ocean", "barnes")


def traced(runner: Runner, args, tag: str):
    out = runner.work / f"{tag}.json"
    p = runner.repro(args, tag, out)
    if p["rc"] != 0:
        sys.exit(f"{tag}: vlt-repro exited {p['rc']}")
    return p, json.loads(out.read_text())


def table_rows(doc: str, title: str):
    """Rows (split on whitespace) of the fenced table headed ``title``."""
    block = doc.split(title, 1)[1].split("```", 1)[0]
    lines = block.splitlines()[1:]   # the rest of the title line
    rows = []
    for line in lines[2:]:   # header row, dashes
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def cross_check(doc: str, specs) -> None:
    """Exit unless the specs match EXPERIMENTS.md's figure tables."""
    def cyc(app, cfg, thr, scalar=False):
        return specs[spec_label(app, cfg, thr, scalar)]["cycles"]

    def expect(what, got, want):
        if got != want:
            sys.exit(f"EXPERIMENTS.md {what}: table {want}, simulated {got}")

    for app, base, c2, _, c4, _ in table_rows(
            doc, "Figure 3: VLT speedup for vector threads over base"):
        expect(f"fig3 {app}", [cyc(app, "base", 1), cyc(app, "V2-CMP", 2),
                               cyc(app, "V4-CMP", 4)],
               [int(base), int(c2), int(c4)])
    for row in table_rows(doc, "Figure 5: design-space speedup over base"):
        app, speedups = row[0], row[1:]
        base = cyc(app, "base", 1)
        expect(f"fig5 {app}",
               [f"{base / cyc(app, cfg, thr):.2f}" for cfg, thr in FIG5_RUNS],
               speedups)
    for app, cmt, vlt, *_ in table_rows(
            doc, "Figure 6: 8 scalar threads on the vector lanes"):
        expect(f"fig6 {app}", [cyc(app, "CMT", 4, True),
                               cyc(app, "VLT-scalar", 8, True)],
               [int(cmt), int(vlt)])


def main() -> int:
    root = Path.cwd()
    work = root / ".benchwork" / "goldens"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, deadline_s=3600)
    specs, ops = {}, {}
    try:
        for tag, args in (("vector", ["fig3", "fig4", "fig5"]),
                          ("lane", ["fig6"])):
            _, dump = traced(runner, args, tag)
            for r in dump["replays"]:
                prev = specs.setdefault(r["spec"], r["result"])
                if prev != r["result"]:
                    sys.exit(f"duplicate replays of {r['spec']} disagree")
                ops[r["spec"]] = r["ops"]
        cache = runner.fresh_dir("cache")
        p, _ = traced(runner, ["mix", "--cache-dir", str(cache)], "mix")
        mix = parse_mix(p["stdout"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = len(VECTOR_APPS) * 7 + len(ALL_SCALAR_APPS) * 2
    if len(specs) != expected:
        sys.exit(f"{len(specs)} unique specs, expected {expected}")
    cross_check((root / "EXPERIMENTS.md").read_text(), specs)
    GOLDENS.write_text(json.dumps({"specs": specs, "ops": ops, "mix": mix},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}: {len(specs)} specs, {len(mix)} mix apps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
