import csv
import errno
import math
import os
import threading
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import ugbench.cli
import ugbench.solvers
from ugbench.cli import (
    DEFAULT_STEP_GRID,
    EXIT_BAD_CONFIG,
    EXIT_DATA_ERROR,
    PROBLEM_GRAMMAR,
    TRACE_HEADER,
    ConfigError,
    RunConfig,
    _publish,
    _write_csv,
    load_dataset,
    main,
    make_oracle_config,
    make_problem,
    parse_config_file,
    write_trace,
)
from ugbench.dataio import synth_least_squares
from ugbench.oracles import Oracle, OracleConfig
from ugbench.problems import logistic_f, p_power_f
from ugbench.solvers import _adagrad_coefficient, run_ugm, run_usgm


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


SMALL = ["--data", "synthetic:20:8:0", "--iters", "200"]
# a seed whose trace file name is longer than a file system allows
LONG_SEED = "9" * 250


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
                      "gaussian:1:2", "minibatch:2:3")),
        ("--problem", ("ppowerfoo:1.5", "ppower:abc", "ppower", "ppower:",
                       "ppower:2.5", "ppower:nan", "ppower:1.5:2", "ls:1")))
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

    def test_ppower_runs_the_library_solve(self, tmp_path):
        rc = main(["run", "--problem", "ppower:1.5", "--solver", "ugm",
                   *SMALL, "--data", "synthetic:20:8:3", "--out", str(tmp_path)])
        assert rc == 0
        ds, _ = synth_least_squares(20, 8, 3)
        _, trace = run_ugm(p_power_f(ds.features, ds.labels, 1.5),
                           max_iters=200)
        expected = tmp_path / "expected.csv"
        write_trace(expected, trace)
        assert ([r[:7] for r in read_csv(tmp_path / "trace_ugm_0.csv")]
                == [r[:7] for r in read_csv(expected)])

    def test_logistic_on_synthetic_data_takes_pm1_labels(self, tmp_path):
        # the synthetic least-squares targets, split at their median
        rc = main(["run", "--problem", "logistic", "--solver", "ugm", *SMALL,
                   "--out", str(tmp_path)])
        assert rc == 0
        ds = load_dataset(RunConfig(problem="logistic", data="synthetic:20:8:0"))
        ls, _ = synth_least_squares(20, 8, 0)
        assert set(ds.labels) == {-1.0, 1.0}
        np.testing.assert_array_equal(
            ds.labels, np.where(ls.labels >= np.median(ls.labels), 1.0, -1.0))
        np.testing.assert_array_equal(ds.features, ls.features)
        assert ds.source == ls.source
        _, trace = run_ugm(logistic_f(ds.features, ds.labels), max_iters=200)
        expected = tmp_path / "expected.csv"
        write_trace(expected, trace)
        assert ([r[:7] for r in read_csv(tmp_path / "trace_ugm_0.csv")]
                == [r[:7] for r in read_csv(expected)])

    def test_run_of_no_iterations_writes_empty_traces(self, tmp_path):
        # an empty trace's summary row has no F or gap and 0 iterations
        rc = main(["run", "--data", "synthetic:5:2", "--iters", "0",
                   "--seeds", "0,7", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "summary.csv").read_text().splitlines()[1:] == [
            "ugm,0,,,0,0,0", "ugm,7,,,0,0,0"]
        for seed in (0, 7):
            assert ((tmp_path / f"trace_ugm_{seed}.csv").read_text()
                    == TRACE_HEADER + "\n")

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


def test_write_csv_prints_each_row_by_its_format_and_nan_empty(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv("s,a,b,c,n,t", "%s,%.17g,%.17g,%.17g,%d,%d\n",
               [("x", math.nan, math.inf, -math.inf, 10 ** 249, True),
                ("y", 0.1, math.nan, math.nan, -3, False)], path)
    assert path.read_text() == ("s,a,b,c,n,t\n"
                                f"x,,inf,-inf,1{'0' * 249},1\n"
                                "y,0.10000000000000001,,,-3,0\n")


@pytest.mark.parametrize("args, solves", [
    # three noisy seeds run as the lanes of one solve
    (["run", "--solver", "sgd:0.1", "--oracle", "minibatch:4"], 1),
    (["run", "--solver", "usfgm", "--oracle", "gaussian:0.5"], 1),
    # exact seeds share one solve
    (["sweep", "--solver", "ugm", "--diameters", "2,1"], 2),
    (["compare", "--solvers", "ugm,usfgm:deterministic,sgd:0.1"], 3),
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


def test_seeds_that_draw_nothing_share_one_solve(tmp_path, monkeypatch):
    calls = []
    for entry in ("run_ugm", "run_usgm", "run_usfgm", "run_projected_subgrad",
                  "run_adagrad_norm"):
        def counting(*a, solve=getattr(ugbench.solvers, entry), entry=entry,
                     **kw):
            calls.append(entry)
            return solve(*a, **kw)
        monkeypatch.setattr(ugbench.solvers, entry, counting)
    seeds = ["--seeds", "0,1,2"]
    assert main(["run", *SMALL, *seeds, "--out", str(tmp_path / "run")]) == 0
    assert calls == ["run_ugm"]
    for seed in (0, 1, 2):
        one = tmp_path / str(seed)
        assert main(["run", *SMALL, "--seeds", str(seed), "--out", str(one)]) == 0
        trace = f"trace_ugm_{seed}.csv"
        assert ([r[:7] for r in read_csv(tmp_path / "run" / trace)]
                == [r[:7] for r in read_csv(one / trace)])
    calls.clear()
    assert main(["sweep", "--diameters", "2,1", *SMALL, *seeds,
                 "--out", str(tmp_path / "sweep")]) == 0
    assert calls == ["run_ugm"] * 2
    calls.clear()
    assert main(["compare", "--solvers",
                 "ugm,usgm,usfgm:deterministic,adagrad,sgd:0.1", *SMALL,
                 *seeds, "--out", str(tmp_path / "compare")]) == 0
    assert calls == ["run_ugm", "run_usgm", "run_usfgm", "run_adagrad_norm",
                     "run_projected_subgrad"]


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

    @pytest.mark.parametrize("flag, spec, expected", [
        pytest.param("--problem", spec, f"bad problem {spec!r}; expected "
                     f"{PROBLEM_GRAMMAR}", id=spec)
        for spec in ("svm", "ppowerfoo:1.5", "ppower:abc", "ppower:0.5")
    ] + [
        pytest.param("--data", spec, f"bad synthetic data spec {spec!r}; "
                     "expected synthetic:M:N[:SEED]", id=spec)
        for spec in ("synthetic:a:3", "synthetic:5:2:x", "synthetic:10",
                     "synthetic:5:2:0:1", "synthetic:0:3", "synthetic:3:0",
                     "synthetic:5:3:-1")
    ])
    def test_bad_spec_names_its_grammar(self, tmp_path, capsys, flag, spec,
                                        expected):
        args = ["--data", "synthetic:5:2:0", flag, spec]
        assert main(["run", *args, "--out", str(tmp_path)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == f"ugbench: {expected}\n"

    @pytest.mark.parametrize("args, config", [
        (["--seeds=-1"], ""), (["--seeds=-1", "--oracle", "gaussian:1"], ""),
        (["--seeds", "0,-2"], ""), ([], "seeds = 3, -1\n")],
        ids=["exact", "gaussian", "list", "file"])
    def test_negative_seed_rejected_before_output(self, tmp_path, capsys,
                                                   args, config):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfgfile), *SMALL, *args,
                   "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith("ugbench: seeds must be ")

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

    @pytest.mark.parametrize("command, args", [
        ("run", ["--radius", "1e-170"]), ("run", ["--radius", "1e155"]),
        ("sweep", ["--solver", "sgd", "--radius", "1e-170"]),
    ])
    def test_bad_radius_is_named_with_its_derived_diameter(
            self, tmp_path, capsys, command, args):
        # D = 2 * radius is derived, so the error names the flag given
        out = tmp_path / "out"
        rc = main([command, *SMALL, *args, "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()
        radius = float(args[-1])
        assert capsys.readouterr().err == (
            f"ugbench: --radius {radius!r}: derived D must be positive with "
            f"0 < D*D < inf, got {2 * radius!r}\n")

    @pytest.mark.parametrize("command, args", BAD_SPECS)
    def test_bad_spec_rejected_before_output(self, tmp_path, command, args):
        out = tmp_path / "out"
        rc = main([command, *SMALL, *args, "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command, args", BAD_SPECS + [
        pytest.param(command, _spec_args(command, "--solver", solver)
                     + ["--oracle", "gaussian:0.5"],
                     id=f"{command}-{solver}-needs-an-exact-oracle")
        for command in ("run", "sweep", "compare")
        for solver in ("ugm", "usfgm:deterministic")
    ] + [
        # each beside a data file that does not exist
        pytest.param(command, _spec_args(command, flag, spec) + extra
                     + ["--data", "absent.libsvm"], id=f"{command}-probe{flag}")
        for command in ("run", "sweep", "compare")
        for flag, spec, extra in (
            ("--problem", "bogus", []), ("--oracle", "bogus", []),
            ("--solver", "ugm", ["--oracle", "gaussian:1"]))
    ] + [
        pytest.param(command, ["--seeds=-1"], id=f"{command}-negative-seed")
        for command in ("run", "sweep", "compare")
    ])
    def test_bad_flag_reads_no_data(self, tmp_path, monkeypatch, command,
                                    args):
        # every error that depends only on the flags comes before the data
        def forbidden(cfg):
            pytest.fail("a bad flag must be rejected before the data is read")
        monkeypatch.setattr("ugbench.cli.load_dataset", forbidden)
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

    @pytest.mark.parametrize("command, args, config, name", [
        ("run", ["--iters", "abc"], "", "--iters"),
        ("run", ["--radius", "x"], "", "--radius"),
        ("run", ["--seeds", "1,x"], "", "--seeds"),
        ("run", [], "trace_every = 1.5\n", "trace_every"),
        ("sweep", ["--steps", ""], "", "--steps"),
        ("sweep", ["--diameters", ""], "", "--diameters"),
        ("sweep", [], "solver = sgd\nsteps = 1,x\n", "steps"),
    ], ids=["iters", "radius", "seeds", "file-trace_every", "steps-empty",
            "diameters-empty", "file-steps"])
    def test_malformed_option_text_names_the_option(
            self, tmp_path, capsys, command, args, config, name):
        # one reader per option, for flags and config-file values alike; an
        # empty grid is malformed text, not the default grid
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfgfile), *SMALL, *args,
                   "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"ugbench: {name}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args, counts", [
        (["--iters", "-1"], (-1, 1)), (["--trace-every", "0"], (200, 0))],
        ids=["iters", "trace-every"])
    def test_iteration_counts_checked_by_the_solvers_rule(
            self, tmp_path, capsys, args, counts):
        with pytest.raises(ValueError) as expected:
            ugbench.solvers.check_iterations(*counts)
        out = tmp_path / "out"
        assert main(["run", *SMALL, *args, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == f"ugbench: {expected.value}\n"

    @pytest.mark.parametrize("args, config", [
        (["--solvers", "usgm,usgm"], ""),
        (["--solvers", "ugm,adagrad,ugm"], ""),
        ([], "solvers = usgm, usgm\n")], ids=["flag", "flag-three", "file"])
    def test_repeated_compare_solver_rejected(self, tmp_path, monkeypatch,
                                              capsys, args, config):
        # one spec twice would write two columns under one header
        def forbidden(cfg):
            pytest.fail("a repeated solver must be rejected before the data")
        monkeypatch.setattr("ugbench.cli.load_dataset", forbidden)
        cfgfile = tmp_path / "compare.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "out"
        rc = main(["compare", "--config", str(cfgfile), *SMALL, *args,
                   "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            "ugbench: compare needs distinct solvers, got ")

    def test_missing_data_file(self, tmp_path):
        rc = main(["run", "--data", str(tmp_path / "absent.libsvm"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_DATA_ERROR

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    def test_labels_outside_two_classes_are_a_data_error(self, tmp_path,
                                                         capsys, command):
        path = tmp_path / "multi.libsvm"
        path.write_text("1 1:0.5 2:1\n2 1:0.1 2:0.3\n3 1:1 2:2\n")
        out = tmp_path / "out"
        extra = ["--solvers", "ugm,usgm"] if command == "compare" else []
        rc = main([command, "--problem", "logistic", "--data", str(path),
                   *extra, "--out", str(out)])
        assert rc == EXIT_DATA_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == (
            "ugbench: classification labels must be -1/+1 or all 0/1, got "
            "2.0 (line 2, column 1)\n")

    # an undecodable byte reads as U+FFFD: a bad token, or nothing in a comment
    @pytest.mark.parametrize("data, error", [
        pytest.param(b"1 1:0.5\n\xff\xfe 1:1\n",
                     "non-numeric label '\ufffd\ufffd' (line 2, column 1)",
                     id="label"),
        pytest.param(b"1 1:0.5 2:\xff\n",
                     "non-numeric token '2:\ufffd' (line 1, column 3)", id="value"),
        pytest.param(b"1 1:0.5 # \xff\n-1 1:1\n", None, id="comment")])
    def test_libsvm_file_is_read_as_utf8(self, tmp_path, capsys, data, error):
        path = tmp_path / "bytes.libsvm"
        path.write_bytes(data)
        out = tmp_path / "out"
        rc = main(["run", "--data", str(path), "--iters", "3", "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (
            (0, "") if error is None else (EXIT_DATA_ERROR, f"ugbench: {error}\n"))
        assert out.exists() == (error is None)

    @pytest.mark.parametrize("out, reason", [
        ("afile", "File exists"), ("afile/sub", "Not a directory"),
        ("", "No such file or directory")])
    def test_out_that_cannot_be_created_is_a_config_error(
            self, tmp_path, monkeypatch, capsys, out, reason):
        # os.makedirs's reason, given before the data is read
        def forbidden(cfg):
            pytest.fail("a bad --out must be rejected before the data is read")
        monkeypatch.setattr("ugbench.cli.load_dataset", forbidden)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        rc = main(["run", "--data", "synthetic:5:2", "--iters", "3",
                   "--out", out])
        assert rc == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == f"ugbench: --out {out}: {reason}\n"
        assert os.listdir(tmp_path) == ["afile"]

    @pytest.mark.parametrize("command, name", [
        ("run", "trace_ugm_0.csv"), ("run", "summary.csv"),
        ("sweep", "sweep.csv")])
    def test_output_file_that_cannot_be_written_is_a_config_error(
            self, tmp_path, capsys, command, name):
        (tmp_path / name).mkdir()
        rc = main([command, "--data", "synthetic:5:2", "--iters", "3",
                   "--out", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            f"ugbench: --out {tmp_path / name}: Is a directory\n")

    @pytest.mark.parametrize("command, args, out, name, reason", [
        pytest.param("run", ["--seeds", "0,1,2"], "", name, "Is a directory",
                     id=name) for name in ("trace_ugm_1.csv", "summary.csv")
    ] + [
        pytest.param(command, args, "", f"{command}.csv", "Is a directory",
                     id=f"{command}.csv")
        for command, args in (("sweep", ["--diameters", "2,1"]),
                              ("compare", ["--solvers", "usgm,ugm"]))
    ] + [
        # a trace name too long for the file system, in a fresh nested --out
        pytest.param("run", ["--seeds", f"0,{LONG_SEED}"], "new/sub",
                     f"trace_ugm_{LONG_SEED}.csv", "File name too long",
                     id="new-sub")])
    def test_output_that_cannot_be_written_leaves_no_file_it_created(
            self, tmp_path, capsys, command, args, out, name, reason):
        # the outputs written before the failing one are removed, and so are
        # the directories of --out that the call created; files that were
        # there before the call keep their bytes
        if not out:
            (tmp_path / name).mkdir()
        (tmp_path / "trace_ugm_2.csv").write_text("old\n")
        before = sorted(os.listdir(tmp_path))
        rc = main([command, "--data", "synthetic:5:2", "--iters", "3", *args,
                   "--out", str(tmp_path / out)])
        assert rc == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            f"ugbench: --out {tmp_path / out / name}: {reason}\n")
        assert sorted(os.listdir(tmp_path)) == before
        assert (tmp_path / "trace_ugm_2.csv").read_text() == "old\n"
        if not out:
            assert (tmp_path / name).is_dir()

    def test_interrupted_write_leaves_no_file_it_created(self, tmp_path,
                                                        monkeypatch):
        # an exception that is no OSError, here an interrupt as summary.csv
        # is written after the three traces, leaves main unchanged; the
        # call's files are removed and the overwritten one has its old bytes
        (tmp_path / "trace_ugm_2.csv").write_text("old\n")
        interrupt, write_csv = KeyboardInterrupt(), ugbench.cli._write_csv

        def interrupted(header, row, rows, path):
            if os.path.basename(path) == "summary.csv":
                assert sorted(os.listdir(tmp_path)) == [
                    f"trace_ugm_{seed}.csv" for seed in range(3)]
                raise interrupt
            write_csv(header, row, rows, path)
        monkeypatch.setattr(ugbench.cli, "_write_csv", interrupted)
        with pytest.raises(KeyboardInterrupt) as raised:
            main(["run", "--data", "synthetic:5:2", "--iters", "3",
                  "--seeds", "0,1,2", "--out", str(tmp_path)])
        assert raised.value is interrupt
        assert os.listdir(tmp_path) == ["trace_ugm_2.csv"]
        assert (tmp_path / "trace_ugm_2.csv").read_text() == "old\n"

    def test_output_whose_write_could_not_open_it_is_not_written_back(
            self, tmp_path, monkeypatch):
        # a file that the failing write left alone (a read-only one, say) is
        # not written to; one written before the failure gets its bytes back
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text(f"old {name}\n")

        def cannot_open(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        restored, write_bytes = [], Path.write_bytes
        monkeypatch.setattr(Path, "write_bytes", lambda self, data: (
            restored.append(self.name), write_bytes(self, data)))
        with pytest.raises(ConfigError, match="b.csv: Permission denied"):
            _publish(str(tmp_path), [("a.csv", partial(write_trace, trace=[])),
                                     ("b.csv", cannot_open)])
        assert restored == ["a.csv"]
        assert (tmp_path / "a.csv").read_text() == "old a.csv\n"

    @pytest.mark.parametrize("command, args", [
        ("run", []), ("sweep", ["--diameters", "2,1"]),
        ("compare", ["--solvers", "usgm,ugm"])], ids=["run", "sweep", "compare"])
    def test_solve_that_raises_leaves_no_out(self, tmp_path, monkeypatch,
                                             capsys, command, args):
        # outputs are written only after every solve is done
        def failing(*a, **kw):
            raise ValueError("the solve failed")
        monkeypatch.setattr(ugbench.solvers, "run_ugm", failing)
        rc = main([command, *SMALL, *args, "--out", str(tmp_path / "new" / "sub")])
        assert rc == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == "ugbench: the solve failed\n"
        assert os.listdir(tmp_path) == []

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

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    @pytest.mark.parametrize("index", [2**62, 10**30])
    def test_unallocatable_libsvm_matrix_is_a_data_error(
            self, tmp_path, capsys, command, index):
        # numpy rejects these shapes whatever the machine's memory
        path = tmp_path / "wide.libsvm"
        path.write_text(f"1 1:1\n-1 {index}:1\n")
        out = tmp_path / "out"
        extra = ["--solvers", "ugm,usgm"] if command == "compare" else []
        rc = main([command, "--data", str(path), *extra, "--out", str(out)])
        assert rc == EXIT_DATA_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"ugbench: cannot allocate the 2 x {index} feature matrix\n")


    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    @pytest.mark.parametrize("spec, error", [
        pytest.param(f"synthetic:1:{10**30}", None, id="too-big"),
        pytest.param("synthetic:10:4", MemoryError, id="memory-error")])
    def test_unallocatable_synthetic_spec_is_a_config_error(
            self, tmp_path, monkeypatch, capsys, command, spec, error):
        # numpy rejects a 10**30-vector whatever the machine's memory; a
        # shape it accepts but cannot allocate raises MemoryError
        if error is not None:
            def synth(m, n, seed):
                raise error()
            monkeypatch.setattr("ugbench.dataio.synth_least_squares", synth)
        out = tmp_path / "out"
        extra = ["--solvers", "ugm,usgm"] if command == "compare" else []
        rc = main([command, "--data", spec, *extra, "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"ugbench: cannot allocate the data of synthetic data spec "
            f"{spec!r}\n")


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

    @pytest.mark.parametrize("command, args, config", [
        ("sweep", ["--solver", "sgd:1:constant", "--steps", "1,0.1"],
         "solver = sgd:1:constant\nsteps = 1,0.1\n"),
        ("sweep", ["--solver", "usgm", "--oracle", "gaussian:1.0",
                   "--seeds", "0,1", "--diameters", "4,2"],
         "solver = usgm\noracle = gaussian:1.0\nseeds = 0,1\n"
         "diameters = 4,2\n"),
        ("compare", ["--solvers", "usgm,adagrad,ugm"],
         "solvers = usgm,adagrad,ugm\n"),
        # a list's items may be spaced, as in "a, b"
        ("compare", ["--seeds", "0,1", "--solvers", "usgm,adagrad,ugm"],
         "seeds = 0, 1\nsolvers = usgm, adagrad , ugm\n"),
    ], ids=["steps", "diameters", "solvers", "spaced-lists"])
    def test_file_sets_what_the_flags_set(self, tmp_path, command, args,
                                          config):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        outputs = {}
        for name, given in (("flags", args), ("file", ["--config", str(cfgfile)])):
            out = tmp_path / name
            assert main([command, *SMALL, *given, "--out", str(out)]) == 0
            outputs[name] = {f.name: f.read_bytes() for f in out.iterdir()}
        # sweep.csv and compare.csv carry no wall time
        assert outputs["file"] == outputs["flags"]
        # a flag overrides the file's grid
        key, value = config.splitlines()[-1].split(" = ")
        out = tmp_path / "overridden"
        flag = "--" + key
        assert main([command, *SMALL, "--config", str(cfgfile), flag,
                     value.rsplit(",", 1)[0], "--out", str(out)]) == 0
        assert outputs["file"] != {f.name: f.read_bytes() for f in out.iterdir()}

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

    @pytest.mark.parametrize("name, reason", [
        ("absent.cfg", "No such file or directory"),
        ("a-directory", "Is a directory")])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys,
                                                      name, reason):
        (tmp_path / "a-directory").mkdir()
        path = tmp_path / name
        out = tmp_path / "out"
        rc = main(["run", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == f"ugbench: --config {path}: {reason}\n"

    @pytest.mark.parametrize("data, error", [
        pytest.param(b"max_iters = 3\n\xff\n", "{}:2: expected key = value",
                     id="line"),
        pytest.param(b"max_iters = 3 # \xff\n", None, id="comment")])
    def test_config_file_is_read_as_utf8(self, tmp_path, capsys, data, error):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(data)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfgfile), *SMALL[:2], "--out", str(out)])
        assert (rc, capsys.readouterr().err) == ((0, "") if error is None else (
            EXIT_BAD_CONFIG, f"ugbench: {error.format(cfgfile)}\n"))
        assert out.exists() == (error is None)

    def test_key_given_twice_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("max_iters = 3\n# again\nmax_iters = 5\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfgfile), *SMALL[:2], "--out", str(out)])
        assert rc == EXIT_BAD_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"ugbench: {cfgfile}:3: key 'max_iters' given twice, first on line 1\n")

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
        obj = make_problem(cfg, load_dataset(cfg))
        _, trace = run_ugm(obj, Oracle(obj, OracleConfig()), cfg.D,
                           cfg.max_iters, trace_every=cfg.trace_every)
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

    @pytest.mark.parametrize("solver, best", [("ugm", "5"),
                                              ("sgd", "0.0001")])
    def test_no_mean_marks_the_smallest_value(self, tmp_path, solver, best):
        # with --iters 0 no grid point has a mean; the tie rule still holds
        rc = main(["sweep", "--solver", solver, "--data", "synthetic:10:4:0",
                   "--iters", "0", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(os.path.join(tmp_path, "sweep.csv"))[1:]
        assert all(r[3] == "" for r in rows)
        assert [r[2] for r in rows if r[4] == "1"] == [best]

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

    @pytest.mark.parametrize("args, values", [
        (["--solver", "usgm", "--diameters", "5,5.0,2"], "(5.0, 5.0, 2.0)"),
        (["--solver", "sgd", "--steps", "1,1.0"], "(1.0, 1.0)")],
        ids=["diameters", "steps"])
    def test_repeated_grid_value_rejected(self, tmp_path, monkeypatch, capsys,
                                          args, values):
        # one value twice would solve one grid point twice, in two rows
        def forbidden(cfg):
            pytest.fail("a repeated grid value must be rejected before the data")
        monkeypatch.setattr("ugbench.cli.load_dataset", forbidden)
        out = tmp_path / "out"
        assert main(["sweep", *args, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"ugbench: sweep grid must be distinct, got {values}\n")

    def test_repeated_value_of_the_grid_not_in_use_is_kept(self, tmp_path):
        assert main(["sweep", "--solver", "ugm", "--steps", "1,1",
                     "--diameters", "2,1", *SMALL, "--out", str(tmp_path)]) == 0

    def test_empty_grid_rejected(self, tmp_path):
        from ugbench.cli import RunConfig, cmd_sweep, ConfigError
        cfg = RunConfig(data="synthetic:5:2:0", max_iters=5,
                        out=str(tmp_path), steps=(), diameters=())
        with pytest.raises(ConfigError):
            cmd_sweep(cfg)


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

    def test_two_spellings_of_one_solve_are_distinct(self, tmp_path):
        rc = main(["compare", "--solvers", "adagrad,adagrad:grad_diff",
                   "--oracle", "gaussian:0.5", *SMALL, "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "compare.csv")
        assert rows[0] == ["k", "F_adagrad", "F_adagrad-grad_diff"]
        assert all(row[1] == row[2] for row in rows[1:])

    @pytest.mark.parametrize("oracle", ["exact", "gaussian:1.0", "minibatch:4"])
    def test_adagrad_domination_uses_usgm_seed_0_draws(self, tmp_path, oracle):
        # the column is AdaGrad's coefficient on the gradients USGM draws on
        # seed 0, minus USGM's H: the same bytes whether seed 0 runs alone
        # or as lane 0 of a pass, and the same as the library's run_usgm
        common = ["compare", "--solvers", "usgm,adagrad", "--oracle", oracle,
                  *SMALL]
        columns = []
        for seeds in ("0", "0,1,2"):
            out = tmp_path / seeds
            assert main([*common, "--seeds", seeds, "--out", str(out)]) == 0
            columns.append([(row[0], row[-1])
                            for row in read_csv(out / "compare.csv")])
        assert columns[0] == columns[1]
        assert columns[0][0] == ("k", "adagrad_domination")
        cfg = RunConfig(data="synthetic:20:8:0")
        obj = make_problem(cfg, load_dataset(cfg))
        one = Oracle(obj, make_oracle_config(oracle, 0))
        one.grads = []
        _, trace = run_usgm(obj, one, D=cfg.D, max_iters=200)
        coefficient = _adagrad_coefficient(obj.metric.b_diag, cfg.D,
                                           "grad_diff")
        assert [d for _, d in columns[0][1:]] == [
            f"{coefficient(g, g_next) - rec.H:.17g}"
            for g, g_next, rec in zip(one.grads, one.grads[1:], trace)]

    def test_adagrad_domination_keeps_one_draw(self, tmp_path):
        # the column needs each consecutive pair of USGM's draws once, so
        # its record holds a few gradients, not one per iteration: the
        # peak traced allocation exceeds that of a compare without the
        # column by less than 10 gradients of 2000 floats.  The warm-up
        # keeps first-call allocations out of the first peak
        common = ["--oracle", "gaussian:1.0", "--data", "synthetic:20:2000:0"]
        assert main(["compare", "--solvers", "usgm,adagrad", *common,
                     "--iters", "3", "--out", str(tmp_path / "warm-up")]) == 0
        peaks = []
        for solvers in ("usgm,adagrad", "usgm,adagrad:grad_norm"):
            tracemalloc.start()
            try:
                assert main(["compare", "--solvers", solvers, *common,
                             "--iters", "300", "--out",
                             str(tmp_path / solvers)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] - peaks[1] < 10 * 2000 * 8

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

    @pytest.mark.parametrize("solvers, oracle, present", [
        ("usgm,adagrad", "gaussian:1.0", True),
        ("usgm,adagrad,adagrad:grad_diff", "gaussian:1.0", True),
        ("adagrad:grad_diff,sgd:0.1,usgm", "gaussian:1.0", True),
        ("usgm,adagrad:grad_norm", "gaussian:1.0", False),
        ("ugm,adagrad", "exact", False)])
    def test_adagrad_domination_needs_usgm_and_grad_diff_adagrad(
            self, tmp_path, solvers, oracle, present):
        # the column is there when USGM and grad_diff AdaGrad are compared,
        # in any order or spelling, and then holds usgm,adagrad's bytes
        common = ["compare", "--oracle", oracle, *SMALL, "--seeds", "0,1,2"]
        assert main([*common, "--solvers", solvers,
                     "--out", str(tmp_path / "a")]) == 0
        rows = read_csv(tmp_path / "a" / "compare.csv")
        assert len(rows[0]) == 2 + solvers.count(",") + present
        assert (rows[0][-1] == "adagrad_domination") == present
        if present:
            assert main([*common, "--solvers", "usgm,adagrad",
                         "--out", str(tmp_path / "b")]) == 0
            reference = read_csv(tmp_path / "b" / "compare.csv")
            assert [row[-1] for row in rows] == [row[-1] for row in reference]
