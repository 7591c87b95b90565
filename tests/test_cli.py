import csv
import os
import threading

import numpy as np
import pytest

import ugbench.solvers
from ugbench.cli import (
    DEFAULT_STEP_GRID,
    EXIT_BAD_CONFIG,
    EXIT_DATA_ERROR,
    TRACE_HEADER,
    RunConfig,
    load_dataset,
    main,
    make_problem,
    parse_config_file,
    run_solver,
    write_trace,
)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


SMALL = ["--data", "synthetic:20:8:0", "--iters", "200"]


def _spec_args(command, flag, spec):
    # compare takes its solvers as a list; a bad one sits beside a good one
    if command != "compare":
        return [flag, spec]
    if flag == "--solver":
        return ["--solvers", f"usgm,{spec}"]
    return [flag, spec, "--solvers", "usgm,adagrad"]


BAD_SPECS = [
    pytest.param(command, _spec_args(command, flag, spec),
                 id=f"{command}{flag}={spec}")
    for command in ("run", "sweep", "compare")
    for flag, specs in (
        ("--solver", ("bogus", "adagrad:bogus", "sgd:abc", "sgd:-1", "sgd:inf",
                      "sgd:1:bogus", "usfgm:determinstic", "ugm:")),
        ("--oracle", ("bogus", "gaussian:-1", "minibatch:0", "minibatch:1.5",
                      "gaussian:1:2", "minibatch:2:3")))
    for spec in specs
] + [
    # sgd sweeps step sizes, every other method sweeps diameters
    pytest.param("sweep", [f"--diameters={grid}"], id=f"sweep--diameters={grid}")
    for grid in ("0", "1,-1", "1,nan", "1,inf")
] + [
    pytest.param("sweep", ["--solver", "sgd:1:constant", f"--steps={grid}"],
                 id=f"sweep--steps={grid}")
    for grid in ("-1", "1,nan", "1,inf")
]


class TestRun:
    def test_run_writes_trace_and_summary(self, tmp_path):
        out = str(tmp_path)
        rc = main(["run", "--solver", "ugm", *SMALL, "--out", out])
        assert rc == 0
        rows = read_csv(os.path.join(out, "trace_ugm_0.csv"))
        assert rows[0] == TRACE_HEADER.split(",")
        assert len(rows) == 201
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(1, 201)]
        # certificate gap populated and nonnegative for the exact method
        assert float(rows[-1][5]) >= 0.0
        summary = read_csv(os.path.join(out, "summary.csv"))
        assert summary[1][0] == "ugm"
        assert int(summary[1][4]) == 200

    def test_multiple_seeds_one_trace_each(self, tmp_path):
        out = str(tmp_path)
        rc = main(["run", "--solver", "usgm", "--oracle", "gaussian:0.5",
                   *SMALL, "--seeds", "1,2,3", "--out", out])
        assert rc == 0
        for s in (1, 2, 3):
            assert os.path.exists(os.path.join(out, f"trace_usgm_{s}.csv"))
        assert len(read_csv(os.path.join(out, "summary.csv"))) == 4

    def test_deterministic_modulo_wall_time(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            rc = main(["run", "--solver", "usfgm", "--oracle", "gaussian:1.0",
                       *SMALL, "--seeds", "5", "--out", out])
            assert rc == 0
            outs.append(read_csv(os.path.join(out, "trace_usfgm_5.csv")))
        for r1, r2 in zip(*outs):
            assert r1[:7] == r2[:7]  # everything except wall_time_s

    def test_solver_tag_escapes_separators(self, tmp_path):
        out = str(tmp_path)
        rc = main(["run", "--solver", "sgd:0.1", *SMALL, "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "trace_sgd-0p1_0.csv"))

    def test_jobs_flag_matches_serial(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        common = ["run", "--solver", "usgm", "--oracle", "gaussian:0.3",
                  *SMALL, "--seeds", "0,1"]
        assert main([*common, "--out", a]) == 0
        assert main([*common, "--jobs", "2", "--out", b]) == 0
        for s in (0, 1):
            ra = read_csv(os.path.join(a, f"trace_usgm_{s}.csv"))
            rb = read_csv(os.path.join(b, f"trace_usgm_{s}.csv"))
            for r1, r2 in zip(ra, rb):
                assert r1[:7] == r2[:7]


@pytest.mark.parametrize("args, solves", [
    (["run", "--solver", "sgd:0.1", "--oracle", "minibatch:4"], 3),
    (["run", "--solver", "usfgm", "--oracle", "gaussian:0.5"], 3),
    (["sweep", "--solver", "ugm", "--diameters", "2,1"], 6),
    (["compare", "--solvers", "ugm,usfgm:deterministic,sgd:0.1"], 9),
])
def test_jobs_runs_every_solve_in_the_calling_thread(tmp_path, monkeypatch,
                                                     args, solves):
    threads = []
    for entry in ("run_ugm", "run_usfgm", "run_projected_subgrad"):
        def recording(*a, solve=getattr(ugbench.solvers, entry), **kw):
            threads.append(threading.get_ident())
            return solve(*a, **kw)
        monkeypatch.setattr(ugbench.solvers, entry, recording)
    assert main([*args, *SMALL, "--seeds", "0,1,2", "--jobs", "2",
                 "--out", str(tmp_path)]) == 0
    assert threads == [threading.get_ident()] * solves


class TestBadInputs:
    def test_unknown_solver(self, tmp_path, capsys):
        rc = main(["run", "--solver", "nope", *SMALL, "--out", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG
        assert "nope" in capsys.readouterr().err

    def test_unknown_problem(self, tmp_path):
        rc = main(["run", "--problem", "svm", *SMALL, "--out", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG

    def test_bad_synthetic_spec(self, tmp_path):
        rc = main(["run", "--data", "synthetic:10", "--out", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG

    def test_nonpositive_diameter(self, tmp_path):
        rc = main(["run", *SMALL, "--D", "-1", "--out", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("flag, value", [
        ("--D", "nan"), ("--D", "1e-300"), ("--D", "inf"), ("--D", "1e200"),
        ("--radius", "nan"), ("--radius", "inf"),
    ])
    def test_bad_diameter_rejected_before_output(self, tmp_path, flag, value):
        # D*D must be positive and finite; the run stops before writing
        out = tmp_path / "out"
        rc = main(["run", *SMALL, flag, value, "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command, args", BAD_SPECS)
    def test_bad_spec_rejected_before_output(self, tmp_path, command, args):
        out = tmp_path / "out"
        rc = main([command, *SMALL, *args, "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        pytest.param(["--solver", "usgm", "--oracle", spec], id=spec)
        for spec in ("exact:5", "gaussian", "gaussian:", "gaussian:nan",
                     "gaussian:inf", "minibatch")
    ] + [
        pytest.param(["--solver", solver, "--oracle", "gaussian:0.5"],
                     id=f"{solver}-needs-an-exact-oracle")
        for solver in ("ugm", "usfgm:deterministic")
    ] + [
        pytest.param(["--solver", "usgm", "--oracle", "gaussian:1", *flags],
                     id="".join(flags))
        for flags in (["--seeds", "1,1"], ["--seeds", "1,2,1", "--jobs", "2"],
                      ["--jobs", "0"], ["--jobs", "-3"])
    ])
    def test_bad_run_config_rejected_before_output(self, tmp_path, args):
        out = tmp_path / "out"
        rc = main(["run", *SMALL, *args, "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()

    def test_missing_data_file(self, tmp_path):
        rc = main(["run", "--data", str(tmp_path / "absent.libsvm"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_DATA_ERROR

    def test_malformed_libsvm_file(self, tmp_path, capsys):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 1:1\n1 oops\n")
        rc = main(["run", "--data", str(path), "--out", str(tmp_path)])
        assert rc == EXIT_DATA_ERROR
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    @pytest.mark.parametrize("text", [
        pytest.param("1 1:1\n1 1:nan\n", id="nan-value"),
        pytest.param("1 1:inf\n", id="inf-value"),
        pytest.param("1e400 1:1\n", id="overflowing-label"),
        pytest.param("1\n-1\n", id="no-features")])
    def test_bad_libsvm_values_rejected_before_output(self, tmp_path, command,
                                                      text):
        path = tmp_path / "bad.libsvm"
        path.write_text(text)
        out = tmp_path / "out"
        extra = ["--solvers", "ugm,usgm"] if command == "compare" else []
        rc = main([command, "--data", str(path), *extra, "--out", str(out)])
        assert rc == EXIT_DATA_ERROR
        assert not out.exists()


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "solver = ugm   # exact method\n"
            "data = synthetic:10:4:0\n"
            "max_iters = 50\n"
            "seeds = 3,4\n"
        )
        out = str(tmp_path / "out")
        rc = main(["run", "--config", str(cfgfile), "--iters", "25",
                   "--out", out])
        assert rc == 0
        for s in (3, 4):
            assert len(read_csv(os.path.join(out, f"trace_ugm_{s}.csv"))) == 26

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("solvr = ugm\n")
        rc = main(["run", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG

    def test_normalize_key_rejected(self, tmp_path):
        # the key was never wired to a flag; it is no longer a config key
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("data = synthetic:10:4:0\nnormalize = true\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()

    def test_malformed_line_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("solver ugm\n")
        rc = main(["run", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG

    def test_parse_config_file_comments(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("# top\nsolver = usgm\n\nradius = 2.0 # r\n")
        assert parse_config_file(str(cfgfile)) == {
            "solver": "usgm", "radius": "2.0",
        }

    def test_b_diag_sets_the_metric(self, tmp_path):
        base = "solver = ugm\ndata = synthetic:10:3:0\nmax_iters = 30\n"
        traces = {}
        for name, line in (("weighted", "b_diag = 1, 2,3\n"), ("euclid", "")):
            cfgfile = tmp_path / f"{name}.cfg"
            cfgfile.write_text(base + line)
            out = tmp_path / name
            assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
            traces[name] = [r[:7] for r in read_csv(out / "trace_ugm_0.csv")]
        cfg = RunConfig(solver="ugm", data="synthetic:10:3:0", max_iters=30,
                        b_diag=(1.0, 2.0, 3.0))
        _, trace = run_solver(cfg, make_problem(cfg, load_dataset(cfg)), 0)
        expected = tmp_path / "expected.csv"
        write_trace(expected, trace)
        assert traces["weighted"] == [r[:7] for r in read_csv(expected)]
        assert traces["weighted"] != traces["euclid"]

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    @pytest.mark.parametrize("value", ["1,x,3", "1,0,3", "1,-2,3", "1,2",
                                       "1,2,3,4", "1,nan,3", ""])
    def test_bad_b_diag_rejected_before_output(self, tmp_path, command, value):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"data = synthetic:10:3:0\nb_diag = {value}\n")
        out = tmp_path / "out"
        extra = ["--solvers", "ugm,usgm"] if command == "compare" else []
        rc = main([command, "--config", str(cfgfile), *extra, "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()


class TestSweep:
    def test_sgd_sweeps_step_grid(self, tmp_path):
        out = str(tmp_path)
        rc = main(["sweep", "--solver", "sgd:1.0", "--data", "synthetic:15:5:0",
                   "--iters", "100", "--seeds", "0,1", "--out", out])
        assert rc == 0
        rows = read_csv(os.path.join(out, "sweep.csv"))
        assert rows[0] == ["solver", "param", "value", "mean_final_F", "best"]
        assert len(rows) == 1 + len(DEFAULT_STEP_GRID)
        assert all(r[1] == "step" for r in rows[1:])
        assert sum(int(r[4]) for r in rows[1:]) == 1

    def test_universal_method_sweeps_diameters(self, tmp_path):
        out = str(tmp_path)
        rc = main(["sweep", "--solver", "ugm", "--data", "synthetic:15:5:0",
                   "--iters", "100", "--diameters", "4,2,1", "--out", out])
        assert rc == 0
        rows = read_csv(os.path.join(out, "sweep.csv"))
        assert [r[1] for r in rows[1:]] == ["D"] * 3
        assert [float(r[2]) for r in rows[1:]] == [4.0, 2.0, 1.0]

    def test_single_point_grid(self, tmp_path):
        out = str(tmp_path)
        rc = main(["sweep", "--solver", "ugm", "--data", "synthetic:10:4:0",
                   "--iters", "50", "--diameters", "2", "--out", out])
        assert rc == 0
        rows = read_csv(os.path.join(out, "sweep.csv"))
        assert len(rows) == 2 and rows[1][4] == "1"

    def test_sgd_sweep_keeps_the_step_rule(self, tmp_path):
        common = ["--data", "synthetic:15:5:0", "--iters", "60", "--seeds", "0,1"]
        assert main(["sweep", "--solver", "sgd:1:constant", "--steps",
                     "1,0.1,0.01", *common, "--out", str(tmp_path / "sweep")]) == 0
        rows = read_csv(tmp_path / "sweep" / "sweep.csv")[1:]
        assert [r[:2] for r in rows] == [["sgd:1:constant", "step"]] * 3
        for row, step in zip(rows, ("1", "0.1", "0.01")):
            out = tmp_path / step
            assert main(["run", "--solver", f"sgd:{step}:constant", *common,
                         "--out", str(out)]) == 0
            finals = [float(r[2]) for r in read_csv(out / "summary.csv")[1:]]
            assert float(row[2]) == float(step)
            assert float(row[3]) == float(np.mean(finals))

    def test_empty_grid_rejected(self, tmp_path):
        from ugbench.cli import RunConfig, cmd_sweep, ConfigError
        cfg = RunConfig(data="synthetic:5:2:0", max_iters=5,
                        out=str(tmp_path))
        with pytest.raises(ConfigError):
            cmd_sweep(cfg, steps=(), diameters=())


class TestCompare:
    def test_two_solvers_wide_csv(self, tmp_path):
        out = str(tmp_path)
        rc = main(["compare", "--solvers", "ugm,usfgm:deterministic",
                   "--data", "synthetic:20:8:0", "--iters", "300",
                   "--out", out])
        assert rc == 0
        rows = read_csv(os.path.join(out, "compare.csv"))
        assert rows[0] == ["k", "F_ugm", "F_usfgm-deterministic"]
        assert len(rows) == 301
        # the accelerated variant should win on a smooth instance by the end
        assert float(rows[-1][2]) <= float(rows[-1][1]) * (1 + 1e-9)

    def test_jobs_flag_matches_serial(self, tmp_path):
        common = ["compare", "--solvers", "usgm,adagrad,sgd:0.1", "--oracle",
                  "gaussian:0.5", "--data", "synthetic:20:8:0", "--iters", "100",
                  "--seeds", "0,1,2"]
        assert main([*common, "--out", str(tmp_path / "a")]) == 0
        assert main([*common, "--jobs", "2", "--out", str(tmp_path / "b")]) == 0
        serial = read_csv(tmp_path / "a" / "compare.csv")
        assert serial[0][-1] == "adagrad_domination" and len(serial) == 101
        assert read_csv(tmp_path / "b" / "compare.csv") == serial

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_untraced_rows_are_empty_without_a_warning(self, tmp_path):
        # every seed's F is nan on an untraced row, where nanmean would warn
        rc = main(["compare", "--solvers", "usgm,sgd:0.1", "--oracle",
                   "gaussian:0.5", "--data", "synthetic:20:8:0", "--iters",
                   "10", "--trace-every", "3", "--seeds", "0,1",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "compare.csv")
        assert [[bool(v) for v in row[1:]] for row in rows[1:]] == [
            [k % 3 == 0 or k == 10] * 2 for k in range(1, 11)]

    def test_single_solver_rejected(self, tmp_path):
        rc = main(["compare", "--solvers", "ugm",
                   "--data", "synthetic:10:4:0", "--out", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG

    def test_adagrad_domination_column(self, tmp_path):
        out = str(tmp_path)
        rc = main(["compare", "--solvers", "usgm,adagrad:grad_diff",
                   "--oracle", "gaussian:0.5", "--data", "synthetic:20:8:0",
                   "--iters", "200", "--seeds", "0,1", "--out", out])
        assert rc == 0
        rows = read_csv(os.path.join(out, "compare.csv"))
        assert rows[0][-1] == "adagrad_domination"
        doms = [float(r[-1]) for r in rows[1:] if r[-1]]
        assert doms and all(d >= -1e-9 for d in doms)
