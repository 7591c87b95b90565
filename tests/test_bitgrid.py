"""tools/bitgrid.py: what it records of an invocation and how it compares."""

import importlib.util
import os

from ugbench import cli

_SPEC = importlib.util.spec_from_file_location(
    "bitgrid", os.path.join(os.path.dirname(__file__), "..", "tools", "bitgrid.py"))
bitgrid = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitgrid)


def test_wall_time_columns_are_cut():
    a = b"k,F,wall_time_s\n1,0.5,0.001\n2,,0.002\n"
    b = b"k,F,wall_time_s\n1,0.5,0.7\n2,,0.9\n"
    assert bitgrid.cut_wall_time(a) == b"k,F\n1,0.5\n2,\n"
    assert bitgrid.cut_wall_time(a) == bitgrid.cut_wall_time(b)


def test_record_holds_exit_code_paths_and_file_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ok = bitgrid._record(cli, ["run", *bitgrid.TINY, "--out", "o"], [])
    assert ok["exit"] == 0 and ok["warnings"] == []
    assert ok["paths"] == ["o", "o/summary.csv", "o/trace_ugm_0.csv"]
    assert sorted(ok["files"]) == ok["paths"][1:]
    # the same solve again, with other wall times, hashes the same
    again = bitgrid._record(cli, ["run", *bitgrid.TINY, "--out", "o"], [])
    assert bitgrid.differences({"run": ok}, {"run": again}) == []


def test_differences_name_what_changed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["run", *bitgrid.TINY, "--seeds", "0,1", "--out", "o"]
    ours = {"run": bitgrid._record(cli, argv, [])}
    theirs = {"run": dict(ours["run"], exit=2, paths=["o"],
                          files=dict(ours["run"]["files"],
                                     **{"o/summary.csv": "0" * 64})),
              "sweep": ours["run"]}
    assert bitgrid.differences(ours, theirs) == [
        "run: exit 2 -> 0",
        "run: paths -[] +['o/summary.csv', 'o/trace_ugm_0.csv', "
        "'o/trace_ugm_1.csv']",
        "run: o/summary.csv differs",
        "sweep: only in theirs"]
