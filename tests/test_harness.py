"""Experiment harness: drivers, report rendering, CLI, docgen."""

import pytest

from repro.harness import experiments as E
from repro.harness import report as R


class TestAreaAndTables:
    def test_area_tables(self):
        res = E.area_tables()
        assert len(res.table1) == 6
        assert len(res.table2) == 7
        text = R.render_area(res)
        assert "V4-CMT" in text and "13.8" in text

    def test_table3(self):
        rows = E.table3_parameters()
        text = R.render_table3(rows)
        assert "4-way out-of-order" in text
        assert "16-way banked" in text

    def test_table4_subset(self):
        chars = E.table4_characteristics(["bt"])
        text = R.render_table4(chars)
        assert "bt" in text and "(46)" in text


class TestFigureDrivers:
    def test_fig1_reduced(self):
        res = E.fig1_lane_scaling(apps=["trfd"], lanes=(1, 8))
        sp = res.speedups("trfd")
        assert sp[0] == 1.0
        assert sp[1] >= 1.0
        text = R.render_fig1(res)
        assert "trfd" in text

    def test_fig3_reduced(self):
        res = E.fig3_vlt_speedup(apps=["trfd"])
        assert res.speedup("trfd", 2) > 1.0
        assert res.speedup("trfd", 4) >= res.speedup("trfd", 2) * 0.9
        text = R.render_fig3(res)
        assert "VLT-2" in text

    def test_fig4_reduced(self):
        res = E.fig4_utilization(apps=["trfd"])
        bars = res.normalized_bars("trfd")
        assert bars["base"]["busy"] > 0
        # base bar is normalised to 1.0 by construction
        assert sum(bars["base"].values()) == pytest.approx(1.0)
        # VLT compresses execution: the total bar shrinks
        assert sum(bars["VLT-4"].values()) < 1.0
        text = R.render_fig4(res)
        assert "VLT-4" in text

    def test_fig5_reduced(self):
        res = E.fig5_design_space(apps=["trfd"])
        row = res.speedups["trfd"]
        assert set(row) == {"V2-SMT", "V2-CMP", "V4-SMT", "V4-CMT",
                            "V4-CMP", "V4-CMP-h"}
        # paper shapes: V4-CMT close to V4-CMP; V4-SMT behind V4-CMT
        assert row["V4-CMT"] >= row["V4-CMP"] * 0.85
        assert row["V4-SMT"] <= row["V4-CMT"] * 1.05
        text = R.render_fig5(res)
        assert "V4-CMP-h" in text

    def test_fig6_reduced(self):
        res = E.fig6_scalar_threads(apps=["ocean"])
        assert res.speedup("ocean") > 1.0
        text = R.render_fig6(res)
        assert "ocean" in text


class TestCli:
    def test_run_experiment_dispatch(self):
        from repro.harness.cli import run_experiment
        out = run_experiment("table1")
        assert "Table 1" in out
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_cli_main_table(self, capsys):
        from repro.harness.cli import main
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_cli_apps_filter(self, capsys):
        from repro.harness.cli import main
        assert main(["fig1", "--apps", "trfd", "--lanes", "1,8"]) == 0
        out = capsys.readouterr().out
        assert "trfd" in out and "mxm" not in out

    def test_cli_zero_timeout_rejected(self, capsys):
        # `--timeout 0` is falsy: it used to silently skip the runner
        # path (and with it the limit), instead of erroring out
        from repro.harness.cli import main
        with pytest.raises(SystemExit):
            main(["fig3", "--apps", "mxm", "--timeout", "0"])
        assert "--timeout must be > 0" in capsys.readouterr().err

    def test_compiler_tradeoff_zero_timeout_is_a_usage_error(
            self, tmp_path, monkeypatch, capsys):
        from repro.harness.cli import main
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["compiler-tradeoff", "--apps", "mxm", "--timeout", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--timeout must be > 0" in captured.err
        assert "Traceback" not in captured.err
        assert not list(tmp_path.iterdir())   # no BENCH json written

    @pytest.mark.parametrize("argv", [["fig7"], ["serve"],
                                      ["fig3", "fig7"], ["fig3", "all"]])
    def test_unknown_names_are_usage_errors(self, argv, monkeypatch,
                                            capsys):
        """Every name is checked before anything runs: a valid section
        listed ahead of a bad one must not simulate first."""
        from repro.harness import cli
        from repro.harness.runner import ExperimentRunner

        def _no_run(*a, **kw):
            raise AssertionError("a simulation ran before the name check")

        monkeypatch.setattr(cli, "run_experiment", _no_run)
        monkeypatch.setattr(cli, "run_experiment_data", _no_run)
        monkeypatch.setattr(ExperimentRunner, "run", _no_run)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: vlt-repro" in captured.err

    def test_all_keeps_the_module_experiment_list(self, monkeypatch,
                                                  capsys):
        """`all` drops the duplicate table2 section from its own copy of
        the name list, not from the list later calls and --help read."""
        from repro.harness import cli

        def _no_run(*a, **kw):
            return ""

        monkeypatch.setattr(cli, "run_experiment", _no_run)
        monkeypatch.setattr(cli, "run_experiment_data", _no_run)
        assert cli.main(["all"]) == 0
        assert "table2" in cli.EXPERIMENT_NAMES


def _count_replays(monkeypatch):
    """Count ``Machine.run_loop`` calls (one per timing replay)."""
    from repro.timing.machine import Machine
    calls = []
    run_loop = Machine.run_loop

    def counting(self):
        calls.append(None)
        return run_loop(self)

    monkeypatch.setattr(Machine, "run_loop", counting)
    return calls


class TestRunMap:
    """Serial sweeps read one lazy, memoising run map per invocation."""

    def test_serial_sweep_replays_each_spec_once(self, tmp_path,
                                                 monkeypatch, capsys):
        from repro.harness.cli import main
        from repro.timing.run import set_trace_cache_dir
        names = ["fig3", "fig4", "fig5"]
        replays = _count_replays(monkeypatch)
        serial = tmp_path / "serial.json"
        assert main(names + ["--apps", "mxm", "--json", str(serial)]) == 0
        # figs 3 and 4 share 3 runs with fig 5: 7 specs, not 13 lookups
        assert len(replays) == len(E.matrix_for(names, apps=["mxm"])) == 7

        runner = tmp_path / "runner.json"
        try:
            assert main(names + ["--apps", "mxm", "--jobs", "1",
                                 "--cache-dir", str(tmp_path / "cache"),
                                 "--json", str(runner)]) == 0
        finally:
            set_trace_cache_dir(None)
        assert serial.read_bytes() == runner.read_bytes()

    def test_bare_driver_calls_do_not_share_results(self, monkeypatch):
        """No module-global memo: each runs=None call gets a fresh map."""
        replays = _count_replays(monkeypatch)
        E.fig3_vlt_speedup(apps=["mxm"])
        E.fig3_vlt_speedup(apps=["mxm"])
        assert len(replays) == 6

    def test_determinism_check_still_replays_every_time(self,
                                                       monkeypatch):
        """The memo lives in the harness, never in simulate(): the
        determinism check must replay all four of its runs."""
        from repro.harness.cli import check_determinism
        replays = _count_replays(monkeypatch)
        assert check_determinism("mxm").startswith("determinism OK")
        assert len(replays) == 4


class TestObservabilityCli:
    def test_trace_verb_writes_chrome_json(self, tmp_path, capsys):
        import json
        from repro.harness.cli import main
        out = tmp_path / "trace.json"
        assert main(["trace", "sage", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "stall attribution" in text
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["app"] == "sage"

    def test_profile_verb(self, tmp_path, capsys):
        import json
        from repro.harness.cli import main
        jpath = tmp_path / "prof.json"
        assert main(["profile", "sage", "--json", str(jpath)]) == 0
        text = capsys.readouterr().out
        assert "host-side phase profile" in text and "replay" in text
        payload = json.loads(jpath.read_text())
        assert payload["app"] == "sage"
        assert "replay" in payload["phases"]

    def test_determinism_verb(self, capsys):
        from repro.harness.cli import main
        assert main(["determinism", "sage"]) == 0
        assert "determinism OK" in capsys.readouterr().out


class TestRenderHelpers:
    def test_bar_scaling(self):
        assert R.bar(0, 10) == ""
        assert len(R.bar(10, 10)) == R.BAR_WIDTH
        assert len(R.bar(5, 10)) == R.BAR_WIDTH // 2

    def test_table_alignment(self):
        text = R.table(["a", "bbb"], [["1", "2"], ["333", "4"]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(l) >= 6 for l in lines[1:])
