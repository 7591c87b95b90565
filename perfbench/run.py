"""Benchmark of ugbench: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree: the program is imported from that
tree's ``src/`` and from nowhere else, and the run exits non-zero when it
is missing.  Workloads: small-overhead, large-matvec, stochastic-cli (see
perfbench/README.md).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` the per-layer metrics.  Scratch files go to
``.bench_build/perfbench``.  The last line of standard output is the result
object; the lines before it give every metric with its unit, notes and the
environment record.
"""

import os

# Fixed before numpy loads, so that every run uses the same BLAS threading.
# One thread: on a shared two-core machine a second BLAS thread gains ~1.6x
# at 2000x500 but makes the timings far less steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402


def main():
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    sys.path[:0] = [str(here), str(src)]
    t0 = perf_counter()
    import numpy  # noqa: F401
    t1 = perf_counter()
    try:
        import ugbench
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ugbench from {src}: {exc}")
    t2 = perf_counter()
    if not Path(ugbench.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: ugbench was imported from {ugbench.__file__}, not {src}")
    import bench
    return bench.main(sys.argv[1:], {"numpy_s": t1 - t0, "ugbench_s": t2 - t1},
                      BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
