"""CLI behaviour: dispatch, exit codes, file outputs, reproducibility."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from cwblowup.cli import main
from cwblowup.params import build_params, load_config
from cwblowup.simulator import run


@pytest.fixture
def fast_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "p=3\nq=1.0\ntau=0.1\nh=0.05\nlambda=10\nblow_threshold=1e6\nmax_steps=10000\n"
    )
    return cfg


def _read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


class TestRunVerb:
    def test_happy_path(self, fast_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(fast_config), "--output-dir", str(out)])
        assert rc == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["status"] == "BlewUp"
        assert (out / "history.csv").exists()

    def test_snapshots_written(self, fast_config, tmp_path):
        out = tmp_path / "snap"
        rc = main(
            [
                "run",
                "--config",
                str(fast_config),
                "--output-dir",
                str(out),
                "--snapshot-every",
                "50",
            ]
        )
        assert rc == 0
        snaps = sorted(out.glob("snapshot_*.csv"))
        assert snaps
        for path in out.iterdir():
            assert "np." not in path.read_text(), path.name
        # every row holds two plain floats, bit-equal to the grid nodes and
        # the mirrored state of the same run
        params, initial = build_params(load_config(fast_config))
        _, history = run(params, initial, snapshot_every=50)
        assert len(snaps) == len(history.snapshots)
        for path, (n, _, x, u) in zip(snaps, history.snapshots):
            assert path.name == f"snapshot_{n:06d}.csv"
            lines = path.read_text().splitlines()
            assert lines[1] == "x,u"
            rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
            assert np.array(rows).tobytes() == np.column_stack((x, u)).tobytes()

    def test_snapshots_beyond_grid_limit_exit_2(self, tmp_path, capsys):
        # q = 1.45 refines to K = 3.7e9 at the default threshold; snapshots
        # of that grid cannot fit in memory, so the run is refused
        out = tmp_path / "huge"
        rc = main(
            ["run", "--set", "q=1.45", "--snapshot-every", "100", "--output-dir", str(out)]
        )
        assert rc == 2
        assert "run without snapshots" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_initial_grid_exits_2(self, tmp_path, capsys):
        # lambda = 1e11 at q = 1.45 starts on K = 5.7e8, too large to sample
        # the initial profile on, so the run is refused before any output
        out = tmp_path / "huge"
        rc = main(["run", "--set", "q=1.45", "--set", "lambda=1e11", "--output-dir", str(out)])
        assert rc == 2
        assert "choose a smaller lambda or q" in capsys.readouterr().err
        assert not out.exists()

    def test_decay_exits_0(self, tmp_path, capsys):
        # p=2 q=1 lambda=2 decays: the run ends Decayed after 7 steps, written
        # and reported, with exit 0
        out = tmp_path / "decay"
        argv = ["run", "--set", "p=2", "--set", "q=1", "--set", "lambda=2"]
        with pytest.warns(UserWarning):
            rc = main([*argv, "--output-dir", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("Decayed: 7 steps")
        assert json.loads((out / "outcome.json").read_text())["status"] == "Decayed"

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2

    def test_inadmissible_override_exits_2(self, fast_config, tmp_path):
        rc = main(
            [
                "run",
                "--config",
                str(fast_config),
                "--set",
                "q=1.8",
                "--set",
                "p=2",
                "--output-dir",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2

    def test_refused_initial_data_exits_2(self, tmp_path, capsys):
        # a table with no row at x = 0 is flat on (-1/9, 1/9), which the
        # first grid (h = 0.05) samples
        x = np.linspace(-1, 1, 10)
        u = 20.0 * np.cos(0.5 * np.pi * x)
        u[0] = u[-1] = 0.0
        table = tmp_path / "flat_top.csv"
        table.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), u.tolist())))
        out = tmp_path / "flat"
        rc = main(["run", "--set", f"initial=file:{table}", "--output-dir", str(out)])
        assert rc == 2
        assert "increase strictly" in capsys.readouterr().err
        assert not out.exists()

    def test_small_amplitude_exits_0(self, tmp_path, capsys):
        # lambda = 0.5 lies below the principal eigenvector from the start
        out = tmp_path / "small"
        with pytest.warns(UserWarning):
            rc = main(["run", "--set", "lambda=0.5", "--output-dir", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("Decayed: 0 steps")

    def test_unknown_key_exits_2(self, fast_config, tmp_path):
        rc = main(
            [
                "run",
                "--config",
                str(fast_config),
                "--set",
                "qq=1",
                "--output-dir",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--set", "max_steps=inf"],
            ["--set", "max_steps=1e400"],
            ["--set", "max_steps=2.7"],
            ["--config", "{tmp}"],
            ["--set", "initial=file:{tmp}"],
            ["--set", "initial=file:{tmp}/bad.csv"],
            ["--snapshot-every", "-5"],
        ],
    )
    def test_refused_input_exits_2(self, argv, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("x,u0\n-1,0\n0,abc\n1,0\n")
        out = tmp_path / "out"
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(["run", *argv, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb", ["run", "classify", "time-table", "figures", "converge", "diagnostics"]
    )
    @pytest.mark.parametrize("target", ["file", "file/sub"])
    def test_output_dir_under_a_file_refused_before_any_run(
        self, verb, target, tmp_path, monkeypatch, capsys
    ):
        from cwblowup import cli

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run", no_run)
        monkeypatch.setattr(cli, "convergence_study", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("keep me\n")
        rc = main([verb, "--output-dir", str(tmp_path / target)])
        assert rc == 2
        assert "is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == "keep me\n"

    def test_byte_identical_reruns(self, fast_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(fast_config), "--output-dir", str(out_a)]) == 0
        assert main(["run", "--config", str(fast_config), "--output-dir", str(out_b)]) == 0
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
        assert (out_a / "outcome.json").read_bytes() == (out_b / "outcome.json").read_bytes()


class TestClassifyVerb:
    def test_writes_report(self, fast_config, tmp_path):
        out = tmp_path / "cls"
        rc = main(
            [
                "classify",
                "--config",
                str(fast_config),
                "--set",
                "p=2",
                "--set",
                "q=1",
                "--set",
                "h=0.25",
                "--set",
                "blow_threshold=1e12",
                "--output-dir",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "blowup_report.json").read_text())
        verdicts = {e["offset"]: e["verdict"] for e in report["offsets"]}
        assert verdicts[0] == "BlowsUp"
        assert verdicts[1] == "BlowsUp" and verdicts[-1] == "BlowsUp"
        assert verdicts[2] == "Bounded" and verdicts[-2] == "Bounded"


    @pytest.mark.parametrize("h, mid", [("1", 1), ("0.5", 2)])
    def test_grid_without_offset_2_exits_3(self, h, mid, tmp_path, capsys):
        # K = 2 and K = 4 keep offset 2 on or beyond the boundary node: the
        # run blows up, but nothing is classified
        out = tmp_path / "coarse"
        argv = ["classify", "--set", f"h={h}", "--set", "p=4", "--set", "q=1"]
        assert main([*argv, "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cannot classify: run ended with BlewUp after ")
        assert f"the final grid has mid = {mid}, so offset 2 is not an interior node" in err
        assert (out / "outcome.json").exists()
        assert not (out / "blowup_report.json").exists()

    def test_unfinished_run_exits_3(self, fast_config, tmp_path):
        out = tmp_path / "cls3"
        rc = main(
            [
                "classify",
                "--config",
                str(fast_config),
                "--set",
                "max_steps=5",
                "--output-dir",
                str(out),
            ]
        )
        assert rc == 3


class TestTimeTableVerb:
    def test_rows_and_lower_bound_column(self, fast_config, tmp_path):
        out = tmp_path / "tt"
        rc = main(
            [
                "time-table",
                "--config",
                str(fast_config),
                "--lambdas",
                "10,100",
                "--output-dir",
                str(out),
            ]
        )
        assert rc == 0
        header, rows = _read_rows(out / "time_table.csv")
        assert header == [
            "lambda",
            "g_lambda",
            "T_num",
            "tail",
            "T_star_star",
            "sandwich_ok",
            "status",
        ]
        assert len(rows) == 2
        for row in rows:
            lam = float(row[0])
            assert float(row[1]) == pytest.approx(1.0 / (2.0 * lam**2), rel=1e-12)
            assert float(row[2]) >= float(row[1])  # T_num at least g
            assert row[6] == "BlewUp"

    def test_decayed_row(self, fast_config, tmp_path):
        # lambda = 0.5 decays: its row says so, with empty time cells
        out = tmp_path / "tt"
        with pytest.warns(UserWarning):
            rc = main(["time-table", "--config", str(fast_config), "--lambdas", "0.5,10",
                       "--output-dir", str(out)])
        assert rc == 0
        _, rows = _read_rows(out / "time_table.csv")
        assert [row[6] for row in rows] == ["Decayed", "BlewUp"]
        assert rows[0][2:6] == ["", "", "", "false"]

    def test_amplitudes_run_in_order(self, fast_config, tmp_path, monkeypatch):
        # each amplitude runs once, in the order given
        from cwblowup import cli

        calls = []
        real_run = cli.run

        def recording_run(params, initial=None, **kwargs):
            calls.append(params.lam)
            return real_run(params, initial, **kwargs)

        monkeypatch.setattr(cli, "run", recording_run)
        argv = ["time-table", "--config", str(fast_config), "--lambdas", "100,10"]
        assert main(argv + ["--output-dir", str(tmp_path / "tt")]) == 0
        assert calls == [100.0, 10.0]

    def test_requires_sine_initial(self, tmp_path):
        table = tmp_path / "bump.csv"
        x = np.linspace(-1, 1, 41)
        u = 30.0 * np.cos(0.5 * np.pi * x)
        u[0] = u[-1] = 0.0
        table.write_text("\n".join(f"{a},{b}" for a, b in zip(x, u)))
        cfg = tmp_path / "t.cfg"
        cfg.write_text("p=3\nq=1\ninitial=file:bump.csv\n")
        rc = main(
            [
                "time-table",
                "--config",
                str(cfg),
                "--lambdas",
                "10",
                "--output-dir",
                str(tmp_path / "tt"),
            ]
        )
        assert rc == 2

    def test_overflowing_bounds(self, tmp_path):
        # lambda^(p-1) overflows: g(lambda) and the upper bound underflow to
        # 0.0, and T_num = 0 lies in [0, 0]
        out = tmp_path / "tt"
        assert main(["time-table", "--set", "q=1", "--lambdas", "1e300",
                     "--output-dir", str(out)]) == 0
        _, rows = _read_rows(out / "time_table.csv")
        assert rows == [["1e+300", "0.0", "0.0", "0.0", "0.0", "true", "BlewUp"]]

    def test_empty_lambda_list(self, fast_config, tmp_path, capsys, monkeypatch):
        # an empty amplitude list is refused before any run, and nothing is written
        from cwblowup import cli

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run", no_run)
        out = tmp_path / "tt0"
        for lambdas in ("", ","):
            argv = ["time-table", "--config", str(fast_config), "--lambdas", lambdas]
            assert main(argv + ["--output-dir", str(out)]) == 2
            assert "no amplitudes" in capsys.readouterr().err
            assert not out.exists()


class TestFiguresVerb:
    def test_scenario_files(self, fast_config, tmp_path):
        out = tmp_path / "figs"
        rc = main(
            [
                "figures",
                "--config",
                str(fast_config),
                "--output-dir",
                str(out),
            ]
        )
        assert rc == 0
        for name in (
            "neighbor_bounded.csv",
            "neighbor_blowup.csv",
            "second_neighbor_bounded.csv",
            "time_vs_bound.csv",
        ):
            assert (out / name).exists()

        # multi-point scenario: first neighbour keeps growing (no saturation)
        header, rows = _read_rows(out / "neighbor_blowup.csv")
        col = header.index("u_m_minus_1")
        series = [float(r[col]) for r in rows]
        assert series[-1] > 100.0 * series[0]

        # damped scenario: first neighbour settles (< 1% move over last half)
        header, rows = _read_rows(out / "neighbor_bounded.csv")
        col = header.index("u_m_minus_1")
        series = [float(r[col]) for r in rows]
        half = series[len(series) // 2 :]
        assert abs(half[-1] - half[0]) < 0.01 * half[0]

        # lower-bound column of the sweep file
        header, rows = _read_rows(out / "time_vs_bound.csv")
        for row in rows:
            lam = float(row[0])
            assert float(row[1]) == pytest.approx(1.0 / (2.0 * lam**2), rel=1e-12)

    def test_each_scenario_runs_once(self, fast_config, tmp_path, monkeypatch):
        from cwblowup import cli

        calls = []
        real_run = cli.run

        def counting_run(*args, **kwargs):
            calls.append(args[0])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(cli, "run", counting_run)
        out = tmp_path / "figs"
        rc = main(["figures", "--config", str(fast_config), "--output-dir", str(out)])
        assert rc == 0
        # p=4 q=1.3, one p=2 q=1 run for both neighbour files, 9 amplitudes
        assert len(calls) == 11
        multi = [c for c in calls if (c.p, c.q) == (2.0, 1.0)]
        assert len(multi) == 1
        blowup = (out / "neighbor_blowup.csv").read_bytes()
        assert blowup == (out / "second_neighbor_bounded.csv").read_bytes()

    def test_table_initial_refused_before_any_output(self, tmp_path):
        table = tmp_path / "bump.csv"
        x = np.linspace(-1, 1, 41)
        u = 30.0 * np.cos(0.5 * np.pi * x)
        u[0] = u[-1] = 0.0
        table.write_text("\n".join(f"{a},{b}" for a, b in zip(x, u)))
        cfg = tmp_path / "t.cfg"
        cfg.write_text("p=3\nq=1\ninitial=file:bump.csv\n")
        out = tmp_path / "figs"
        rc = main(["figures", "--config", str(cfg), "--output-dir", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("verb, lambdas", [("time-table", "10,-1")])
    def test_refused_amplitude_leaves_no_output(
        self, verb, lambdas, fast_config, tmp_path, capsys
    ):
        out = tmp_path / "out"
        argv = [verb, "--config", str(fast_config), f"--lambdas={lambdas}"]
        assert main(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, status", [([], "BlewUp"), (["--set", "max_steps=5"], "BudgetExhausted")]
    )
    def test_time_vs_bound_matches_time_table(self, overrides, status, fast_config, tmp_path):
        # figures sweeps the nine figure amplitudes at p = 3, as fast_config sets
        from cwblowup.cli import _FIGURE_LAMBDAS

        argv = ["--config", str(fast_config), *overrides]
        lambdas = ",".join(map(repr, _FIGURE_LAMBDAS))
        tt = ["time-table", *argv, "--lambdas", lambdas, "--output-dir", str(tmp_path / "tt")]
        assert main(tt) == 0
        assert main(["figures", *argv, "--output-dir", str(tmp_path / "fig")]) == 0
        names, table = _read_rows(tmp_path / "tt" / "time_table.csv")
        header, rows = _read_rows(tmp_path / "fig" / "time_vs_bound.csv")
        assert header == ["lambda", "g_lambda", "T_num", "tail", "status"]
        keep = [names.index(name) for name in header]
        assert rows == [[row[k] for k in keep] for row in table]
        assert [row[-1] for row in rows] == [status] * len(_FIGURE_LAMBDAS)
        if status != "BlewUp":
            # a run that did not blow up has no blow-up time
            assert all(row[2] == row[3] == "" for row in rows)


class TestConvergeVerb:
    def test_study(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("p=2\nq=1\ntau=0.1\nh=0.2\nlambda=10\nblow_threshold=1e10\n")
        out = tmp_path / "conv"
        rc = main(
            [
                "converge",
                "--config",
                str(cfg),
                "--levels",
                "0.2,0.1,0.05",
                "--output-dir",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "convergence.json").read_text())
        assert report["fitted_order"] > 1.5
        assert report["expected_order"] == 2.0
        assert (out / "convergence.csv").exists()

    def test_large_lambda_reference_converges(self, tmp_path):
        # the h = 0.00125 reference run has lambda_n = 6.4e4; its solves are
        # backward stable, and the residual check must accept them
        out = tmp_path / "conv"
        rc = main(
            [
                "converge",
                "--set",
                "p=2",
                "--set",
                "q=1",
                "--levels",
                "0.02,0.01,0.005",
                "--output-dir",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "convergence.json").read_text())
        assert 1.8 <= report["fitted_order"] <= 2.2

    def test_solver_error_exits_3(self, tmp_path, monkeypatch, capsys):
        from cwblowup import simulator
        from cwblowup.stepper import StiffError

        def boom(*args, **kwargs):
            raise StiffError("synthetic failure")

        monkeypatch.setattr(simulator, "step", boom)
        out = tmp_path / "conv"
        rc = main(
            ["converge", "--set", "p=2", "--set", "q=1", "--t-check", "0.01",
             "--output-dir", str(out)]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "SolverError" in err and "StiffError: synthetic failure" in err
        assert "t_check" not in err
        assert not (out / "convergence.json").exists()

    @pytest.mark.parametrize("t_check", ["-1", "0"])
    def test_non_positive_t_check_exits_2(self, t_check, tmp_path, capsys):
        out = tmp_path / "conv"
        rc = main(["converge", "--set", "q=1", "--t-check", t_check, "--output-dir", str(out)])
        assert rc == 2
        assert f"t_check must be > 0, got {float(t_check)!r}" in capsys.readouterr().err
        assert not out.exists()


class TestDiagnosticsVerb:
    def test_clean_run_exits_0(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("p=3\nq=1.2\ntau=0.1\nh=0.05\nlambda=10\nblow_threshold=1e9\n")
        out = tmp_path / "diag"
        rc = main(["diagnostics", "--config", str(cfg), "--output-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload.keys() == {"outcome", "ratio_diagnostics", "failures"}
        assert payload["failures"] == []
        assert payload["ratio_diagnostics"]["applicable"]

    def test_not_applicable_report_is_strict_json(self, tmp_path, capsys):
        # p=2 q=1 is outside the single-point regime, a two-step budget ends
        # before blow_threshold, and at h=1 q=1 the grid keeps K = 2, whose
        # peak neighbour is the boundary node: the four means are null, the
        # file holds no NaN or Infinity token, and the verb says it checked
        # no limit
        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        cases = [
            (["--set", "p=2", "--set", "q=1"],
             "regime 'multi-point' is outside p > 2, q < 2(p-1)/p"),
            (["--set", "max_steps=2"], "run did not reach blow_threshold"),
            (["--set", "h=1", "--set", "p=4", "--set", "q=1"],
             "peak neighbour u_m_minus_1 is 0 in the last 51 rows"),
        ]
        for k, (settings, reason) in enumerate(cases):
            out = tmp_path / f"diag{k}"
            rc = main(["diagnostics", *settings, "--output-dir", str(out)])
            assert rc == 0
            assert capsys.readouterr().out == f"limits not checked: {reason}\n"
            text = (out / "diagnostics.json").read_text()
            payload = json.loads(text, parse_constant=refuse)
            assert payload["failures"] == []
            ratio = payload["ratio_diagnostics"]
            assert not ratio["applicable"] and ratio["reason"] == reason
            for key in ("mean_ratio_change", "mean_growth", "ratio_change_deviation",
                        "growth_deviation"):
                assert ratio[key] is None, key

    def test_decay_exits_0(self, tmp_path, capsys):
        # the run ends Decayed: diagnostics.json is written, no limit is
        # checked, and the verb exits 0
        out = tmp_path / "decay"
        argv = ["diagnostics", "--set", "p=3", "--set", "q=1.2", "--set", "lambda=2"]
        with pytest.warns(UserWarning):
            rc = main([*argv, "--output-dir", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == "limits not checked: run did not reach blow_threshold\n"
        assert captured.err == ""
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["outcome"]["status"] == "Decayed"

    def test_failed_limit_check_exits_4(self, tmp_path, monkeypatch):
        # no known carried run fails the limit checks, so the report of a
        # clean run is altered to one whose peak growth is far from 1+tau
        from dataclasses import replace

        from cwblowup import cli

        real = cli.peak_ratio_diagnostics
        monkeypatch.setattr(
            cli,
            "peak_ratio_diagnostics",
            lambda history, params: replace(real(history, params), growth_deviation=0.5),
        )
        cfg = tmp_path / "d.cfg"
        cfg.write_text("p=3\nq=1.2\ntau=0.1\nh=0.05\nlambda=10\nblow_threshold=1e9\n")
        out = tmp_path / "diag_bad"
        rc = main(["diagnostics", "--config", str(cfg), "--output-dir", str(out)])
        assert rc == 4
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["ratio_diagnostics"]["applicable"]
        assert payload["failures"] == ["peak growth deviates 50.000% from 1+tau"]

    @pytest.mark.parametrize(
        "change, failure",
        [
            ({"ratio_change_deviation": 0.5},
             "neighbour ratio change deviates 50.000% from 1/(1+tau)"),
            ({"strictly_decreasing_tail": False},
             "neighbour-to-peak ratio not strictly decreasing in the tail"),
        ],
        ids=["ratio-change", "not-decreasing"],
    )
    def test_failed_neighbour_limit_exits_4(self, tmp_path, monkeypatch, change, failure):
        # as above, a clean run's report is altered to fail one neighbour check
        from dataclasses import replace

        from cwblowup import cli

        real = cli.peak_ratio_diagnostics
        monkeypatch.setattr(
            cli,
            "peak_ratio_diagnostics",
            lambda history, params: replace(real(history, params), **change),
        )
        out = tmp_path / "diag_bad"
        argv = ["diagnostics", "--set", "q=1.2", "--set", "blow_threshold=1e9"]
        rc = main([*argv, "--output-dir", str(out)])
        assert rc == 4
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["failures"] == [failure]


class TestExitCodes:
    """A refused input exits 2, and a run that leaves nothing to classify 3;
    any other exception is a defect and is not caught."""

    def test_value_error_inside_a_run_is_not_exit_2(self, tmp_path, monkeypatch):
        from cwblowup import simulator

        def boom(*args, **kwargs):
            raise ValueError("synthetic defect")

        monkeypatch.setattr(simulator, "step", boom)
        with pytest.raises(ValueError, match="synthetic defect"):
            main(["run", "--output-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "argv, code, names",
        [
            (["run", "--set", "tau=1e-17", "--set", "blow_threshold=5"], 2, "tau=1e-17"),
            (
                ["run", "--set", f"p={math.nextafter(1.0, 2.0)!r}", "--set", "q=1",
                 "--set", "blow_threshold=5"],
                2,
                "p=1.0000000000000002",
            ),
            (["run", "--set", "lambda=inf", "--set", "q=1.2"], 2, "lambda must be finite"),
            (["run", "--set", "tau=inf"], 2, "tau must be finite"),
            (
                ["run", "--set", "p=1000", "--set", "q=1.998", "--set", "blow_threshold=1.99"],
                2,
                "spacing h = 0.0",
            ),
            (["converge", "--levels", "4,2,1"], 2, "(0, 2], got 4.0"),
            # the levels' K = 4M..16M fit, but the reference's 4 x 16M does not
            (["converge", "--levels", "5e-7,2.5e-7,1.25e-7"], 2, "K = 64000000 intervals"),
            (["converge", "--set", "q=1", "--t-check", "1e-300"], 2, "t_check=1e-300"),
            (["classify", "--set", "lambda=1e13"], 3, "BlewUp after 0 steps"),
            # subnormal levels: 2/h overflows, and run() could not sample the grid
            (["converge", "--levels", "4e-320,2e-320,1e-320"], 2, "spacing h = 4e-320"),
            (["converge", "--levels", "1e-7,5e-8,2.5e-8"], 2, "coarser than 1e-07"),
            # the coarse run starts above the threshold, so the default t_check is 0
            (
                ["converge", "--set", "q=1", "--set", "lambda=1e13"],
                2,
                "blew up at once (lambda=10000000000000.0",
            ),
            (["run", "--set", "tau=1e300"], 2, "reaches the limit 2^52"),
            # a decaying run leaves nothing to classify, and no blow-up time
            # to pick t_check from
            (["classify", "--set", "lambda=0.5"], 3, "Decayed after 0 steps"),
            (["converge", "--set", "lambda=0.5"], 2, "coarse run did not blow up"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:.*large amplitude:UserWarning")
    def test_repro_exit_code(self, argv, code, names, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--output-dir", str(out)]) == code
        assert names in capsys.readouterr().err
        if code == 2:
            assert not out.exists()

    @pytest.mark.parametrize("option", ["--config", "--set"])
    def test_undecodable_file_exits_2(self, option, tmp_path, capsys):
        binary = tmp_path / "binary.dat"
        binary.write_bytes(b"p=3\n\xff\xfe\n")
        value = str(binary) if option == "--config" else f"initial=file:{binary}"
        out = tmp_path / "out"
        assert main(["run", option, value, "--output-dir", str(out)]) == 2
        assert f"{binary} is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


# The exit codes README documents for each verb: 0 ok, 2 configuration
# error, 3 solver error (for classify also nothing to classify), 4 a failed
# diagnostics check; time-table reports a failed run in its row.
_VERB_EXIT_CODES = {
    "run": {0, 2, 3},
    "classify": {0, 2, 3},
    "time-table": {0, 2},
    "diagnostics": {0, 2, 3, 4},
    "converge": {0, 2, 3},
}


def test_scan_of_extreme_cli_settings(tmp_path):
    # 240 argv: five verbs over p, q in {1, q_max}, an ordinary and a huge
    # lambda, a low and the default threshold, and two base increments.  No
    # exception may leave main, and each exit code is one its verb documents
    # (time-table takes the amplitude from --lambdas).
    escapes = []
    settings = itertools.product(
        _VERB_EXIT_CODES, (1.5, 3.0, 5.0), (False, True), (10.0, 1e300), (5.0, 1e12), (0.1, 1.0)
    )
    for i, (verb, p, at_q_max, lam, threshold, tau) in enumerate(settings):
        q = 2.0 * p / (p + 1.0) if at_q_max else 1.0
        argv = [verb]
        for key, value in (("p", p), ("q", q), ("lambda", lam), ("blow_threshold", threshold),
                           ("tau", tau)):
            argv += ["--set", f"{key}={value!r}"]
        if verb == "time-table":
            argv += ["--lambdas", repr(lam)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                code = main([*argv, "--output-dir", str(tmp_path / f"out{i}")])
        except Exception as exc:  # every escape is reported
            escapes.append((argv, type(exc).__name__, str(exc)))
            continue
        if code not in _VERB_EXIT_CODES[verb]:
            escapes.append((argv, "exit code", code))
    assert i == 239
    assert escapes == []
