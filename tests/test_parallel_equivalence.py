"""The headline harness guarantee: ``--jobs 4`` == ``--jobs 1``.

Runs the *full* experiment matrix (every run behind Figures 1/3/4/5/6,
all nine workloads) through the runner serially and with four worker
processes, and asserts cycle-for-cycle and byte-for-byte agreement of
the generated EXPERIMENTS.md.  The serial document must also equal the
committed EXPERIMENTS.md byte for byte, which pins the absolute cycle
count of every run in the matrix.  This is the slowest test in the
suite (it executes the sweep twice); it is the acceptance test for the
parallel runner, not a unit test.
"""

from pathlib import Path

from repro.harness import experiments as E
from repro.harness.docgen import generate_experiments_md
from repro.harness.runner import ExperimentRunner
from repro.timing.run import set_trace_cache_dir

_FIGS = ["fig1", "fig3", "fig4", "fig5", "fig6"]
_COMMITTED = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def test_jobs4_matches_jobs1_full_matrix(tmp_path):
    specs = E.matrix_for(_FIGS)
    assert {s.app for s in specs} == set(E.ALL_APPS)

    serial = ExperimentRunner(jobs=1, cache_dir=tmp_path / "serial")
    out1 = serial.run(specs)
    parallel = ExperimentRunner(jobs=4, cache_dir=tmp_path / "parallel")
    out4 = parallel.run(specs)
    set_trace_cache_dir(None)

    assert not serial.failures and not parallel.failures
    cycles1 = {s: o.result.cycles for s, o in out1.items()}
    cycles4 = {s: o.result.cycles for s, o in out4.items()}
    assert cycles1 == cycles4

    doc1 = generate_experiments_md(runs=serial.results)
    doc4 = generate_experiments_md(runs=parallel.results)
    assert doc1 == doc4   # byte-identical documents
    assert doc1 == _COMMITTED.read_text()   # pinned absolute cycles
    for app in E.ALL_APPS:
        assert app in doc4
