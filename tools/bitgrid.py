"""Bit-identity grid of `ugbench` invocations.

Runs a fixed grid of `cli.main` invocations in process, each in a fresh
empty working directory, and records for each one the exit code, the
SHA-256 of stderr, the warnings raised, the sorted paths left in its
directory and the SHA-256 of each file there, with the CSV columns named
`wall_time_s` cut.  The grid covers problems ls, logistic and ppower:1.5 x
oracles exact, gaussian:1.0 and minibatch:1/4/64 x --trace-every 1 and 7,
with --seeds 0,1,2 and 1500 iterations: a run of every solver, two sweeps
and a compare per cell, plus a few invocations that fail, a run of no
iterations, three of two noisy seeds, two compares of three noisy seeds
on solver lists that test the domination column's rule, two of eight
noisy seeds, six on ppower:1 and ppower:2 and two on logistic with
--radius 100.  An invocation is keyed by its argv and the entries made in
its directory before the call.

    python tools/bitgrid.py [--src DIR] [--manifest PATH]
    python tools/bitgrid.py --against REV

--src names the source tree to import `ugbench` from (default: the `src/`
beside this file), and --manifest where the JSON manifest goes.  --against
exports REV's `src/` with `git archive` into a temporary directory, runs
the same grid on it in a fresh process and prints each difference; the
exit status is then 1 if there is any difference.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DATA = "synthetic:100:10:1"  # 100 rows, so that minibatch:64 is valid
PROBLEMS = ("ls", "logistic", "ppower:1.5")
ORACLES = ("exact", "gaussian:1.0", "minibatch:1", "minibatch:4", "minibatch:64")
SOLVERS = ("ugm", "usgm", "usfgm", "usfgm:deterministic", "adagrad",
           "adagrad:grad_norm", "sgd:0.1")
EXACT_ONLY = ("ugm", "usfgm:deterministic")
# a seed whose trace file name is longer than a file system allows
LONG_SEED = "9" * 250
TINY = ["--data", "synthetic:5:2", "--iters", "3"]


def grid():
    """Every invocation as (argv, setup); setup lists the ("file" or "dir",
    path) entries made in the working directory before the call."""
    for problem, oracle, every in itertools.product(PROBLEMS, ORACLES, ("1", "7")):
        cell = ["--problem", problem, "--oracle", oracle, "--data", DATA,
                "--iters", "1500", "--trace-every", every, "--seeds", "0,1,2",
                "--out", "out"]
        for solver in SOLVERS:
            if oracle == "exact" or solver not in EXACT_ONLY:
                yield ["run", "--solver", solver, *cell], []
        yield ["sweep", "--solver", "usgm", *cell], []
        yield ["sweep", "--solver", "sgd:1:constant", *cell], []
        yield ["compare", "--solvers", "usgm,adagrad,sgd:0.1", *cell], []
    yield ["run", *TINY, "--seeds", LONG_SEED, "--out", "new"], []
    yield ["run", *TINY, "--seeds", LONG_SEED, "--out", "a/b/c"], []
    yield ["run", *TINY, "--seeds", f"0,{LONG_SEED}", "--out", "a/b/c"], []
    yield ["run", *TINY, "--out", "afile"], [("file", "afile")]
    yield ["run", *TINY, "--out", "afile/sub"], [("file", "afile")]
    yield ["run", *TINY, "--out", ""], []
    yield ["run", "--data", "absent.libsvm", "--out", "out"], []
    yield ["run", "--problem", "bogus", *TINY, "--out", "out"], []
    yield (["run", *TINY, "--seeds", "0,1,2", "--out", "out"],
           [("dir", "out/trace_ugm_1.csv"), ("file", "out/trace_ugm_2.csv")])
    # trace_ugm_2.csv is overwritten before summary.csv fails
    yield (["run", *TINY, "--seeds", "0,1,2", "--out", "out"],
           [("file", "out/trace_ugm_2.csv"), ("dir", "out/summary.csv")])
    yield ["sweep", *TINY, "--out", "out"], [("dir", "out/sweep.csv")]
    yield (["compare", *TINY, "--solvers", "usgm,adagrad", "--out", "out"],
           [("dir", "out/compare.csv")])
    yield ["run", "--data", "synthetic:5:2", "--iters", "0", "--seeds", "0,7",
           "--out", "out"], []
    # two noisy seeds, which run one by one, not as lanes
    two = ["--data", DATA, "--iters", "300", "--seeds", "0,1", "--out", "out"]
    yield ["run", "--solver", "usgm", "--oracle", "gaussian:1.0", *two], []
    yield ["run", "--solver", "adagrad", "--oracle", "minibatch:4", *two], []
    yield ["compare", "--solvers", "usgm,adagrad", "--oracle", "gaussian:1.0",
           *two], []
    # three noisy seeds of compare where the domination column's detection
    # takes each branch: usgm last among three, and no grad_diff AdaGrad
    three = ["--oracle", "gaussian:1.0", "--data", DATA, "--iters", "300",
             "--seeds", "0,1,2", "--out", "out"]
    yield ["compare", "--solvers", "adagrad:grad_diff,sgd:0.1,usgm", *three], []
    yield ["compare", "--solvers", "usgm,adagrad:grad_norm", *three], []
    # eight noisy seeds of usfgm and sgd, which run as lanes
    eight = ["--data", DATA, "--iters", "300", "--seeds", "0,1,2,3,4,5,6,7",
             "--out", "out"]
    yield ["run", "--solver", "usfgm", "--oracle", "gaussian:1.0", *eight], []
    yield ["sweep", "--solver", "sgd", "--oracle", "minibatch:4", *eight], []
    yield ["sweep", *TINY, "--diameters", "5,5", "--out", "out"], []
    # F at every iteration, as the monitor computes it, at p-power's ends
    # and on logistic margins that reach logaddexp's saturated range
    monitored = ["--data", DATA, "--iters", "1500", "--seeds", "0,1,2", "--out", "out"]
    solves = (("usgm", "gaussian:1.0"), ("sgd:0.1", "exact"),
              ("adagrad", "minibatch:4"))
    for problem in ("ppower:1", "ppower:2"):
        for solver, oracle in solves:
            yield ["run", "--problem", problem, "--solver", solver, "--oracle",
                   oracle, "--trace-every", "1", *monitored], []
    for solver in ("usgm", "usfgm"):
        yield ["run", "--problem", "logistic", "--radius", "100", "--solver", solver,
               "--oracle", "gaussian:1.0", *monitored], []


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def cut_wall_time(data):
    """A CSV file's bytes without its wall_time_s columns."""
    lines = data.decode().split("\n")
    keep = [i for i, name in enumerate(lines[0].split(",")) if name != "wall_time_s"]
    return "\n".join(",".join(line.split(",")[i] for i in keep) if line else line
                     for line in lines).encode()


def _record(cli, argv, setup):
    """The manifest entry of one invocation, run in an empty working directory."""
    for kind, path in setup:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if kind == "dir":
            os.mkdir(path)
        else:
            with open(path, "w") as fh:
                fh.write("there before\n")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    paths, files = [], {}
    for top, dirs, names in os.walk("."):
        for name in dirs + names:
            path = os.path.relpath(os.path.join(top, name))
            paths.append(path)
            if name in names:
                with open(path, "rb") as fh:
                    data = fh.read()
                files[path] = _sha256(cut_wall_time(data) if path.endswith(".csv")
                                      else data)
    return {"exit": code, "stderr": _sha256(err.getvalue().encode()),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "paths": sorted(paths), "files": files}


def run_grid(src):
    """The manifest of the grid run with ugbench imported from src."""
    sys.path.insert(0, src)
    from ugbench import cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"bitgrid: imported {cli.__file__}, not the ugbench of {src}")
    manifest, cwd, start = {}, os.getcwd(), time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bitgrid-") as base:
        for i, (argv, setup) in enumerate(grid()):
            workdir = os.path.join(base, str(i))
            os.mkdir(workdir)
            os.chdir(workdir)
            try:
                key = " ".join(argv).replace(LONG_SEED, "<9 x 250>") + "".join(
                    f" [{kind} {path}]" for kind, path in setup)
                manifest[key] = _record(cli, argv, setup)
            finally:
                os.chdir(cwd)
            shutil.rmtree(workdir)
    print(f"bitgrid: {len(manifest)} invocations of {src} in "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return manifest


def differences(ours, theirs):
    """One line per difference between two manifests."""
    lines = []
    for key in sorted(ours.keys() | theirs.keys()):
        a, b = ours.get(key), theirs.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'theirs' if a is None else 'ours'}")
            continue
        for field in ("exit", "stderr", "warnings"):
            if a[field] != b[field]:
                lines.append(f"{key}: {field} {b[field]!r} -> {a[field]!r}")
        if a["paths"] != b["paths"]:
            gone = sorted(set(b["paths"]) - set(a["paths"]))
            new = sorted(set(a["paths"]) - set(b["paths"]))
            lines.append(f"{key}: paths -{gone} +{new}")
        for path in sorted(a["files"].keys() & b["files"].keys()):
            if a["files"][path] != b["files"][path]:
                lines.append(f"{key}: {path} differs")
    return lines


def main():
    parser = argparse.ArgumentParser(prog="bitgrid", description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--manifest")
    parser.add_argument("--against", metavar="REV")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    ours = run_grid(src)
    if args.manifest:
        with open(args.manifest, "w") as fh:
            json.dump(ours, fh, indent=1, sort_keys=True)
    if args.against is None:
        return 0
    with tempfile.TemporaryDirectory(prefix="bitgrid-rev-") as tree:
        archive = subprocess.run(["git", "archive", args.against, "src"], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        path = os.path.join(tree, "manifest.json")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--src",
                        os.path.join(tree, "src"), "--manifest", path], check=True)
        with open(path) as fh:
            theirs = json.load(fh)
    lines = differences(ours, theirs)
    print(f"bitgrid: {src} against {args.against}: {len(lines)} differences "
          f"in {len(ours)} invocations")
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
