"""Spans for the traced run and the per-layer metrics computed from them.

Only the traced run installs the wrappers.  They go around public callables
that the solvers reach: the objective's ``f_eval`` and ``value``, the
oracle's ``draw``, the metric/prox/balance/certificate functions as seen by
``ugbench.solvers``, and the CLI's data loading and trace writing.  A span
is (name, parent, start, end); spans stay in memory in flat arrays and are
written out once, when the run ends.  Self time is a span's duration minus
that of its children.
"""

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import ugbench.solvers
from ugbench import cli, dataio
from ugbench.oracles import Oracle

from workloads import ALGORITHMIC_VALUE

# names the solvers look up in their own module, mapped to span names
SOLVER_GLOBALS = {
    "norm": "metric.norm",
    "dual_norm": "metric.dual_norm",
    "pairing": "metric.pairing",
    "prox_step": "problems.prox_step",
    "project_ball": "problems.project_ball",
    "balance_update": "solvers.balance_update",
    "certificate_update": "certificate.update",
    "certificate_gap": "certificate.gap",
}
# solver entry points, wrapped so that CLI solves get a root span
SOLVER_ENTRIES = ("run_ugm", "run_usgm", "run_usfgm",
                  "run_projected_subgrad", "run_adagrad_norm")
METRIC_SPANS = ("metric.norm", "metric.dual_norm", "metric.pairing")
PROX_SPANS = ("problems.prox_step", "problems.project_ball")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        name_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(i)
            start_a.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[i] = perf_counter()
                stack.pop()
        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; yields its index."""
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            yield i
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def patch(self, owner, attr, name, fn=None):
        """Replace owner.attr by a traced wrapper; undone by uninstall()."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, self.wrap(name, fn or getattr(owner, attr)))
        self._undo.append((owner, attr, had_own, original))

    def instrument(self, obj):
        self.patch(obj, "f_eval", "problems.f_eval")
        self.patch(obj, "value", "problems.value")

    def install(self, objects):
        for attr, name in SOLVER_GLOBALS.items():
            self.patch(ugbench.solvers, attr, name)
        for attr in SOLVER_ENTRIES:
            self.patch(ugbench.solvers, attr, "solvers." + attr)
        self.patch(Oracle, "draw", "oracles.draw")
        self.patch(dataio, "parse_libsvm", "dataio.parse_libsvm")
        self.patch(cli, "load_dataset", "cli.load_dataset")
        self.patch(cli, "write_trace", "cli.write_trace")
        make_problem = cli.make_problem

        def make_instrumented(cfg, dataset):
            obj = make_problem(cfg, dataset)
            self.instrument(obj)
            return obj
        self.patch(cli, "make_problem", "cli.make_problem", make_instrumented)
        for obj in objects:
            self.instrument(obj)

    def uninstall(self):
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def arrays(self):
        # copies, so that the arrays stay free to grow
        return (np.frombuffer(self.name, dtype=np.intc).copy(),
                np.frombuffer(self.parent, dtype=np.intc).copy(),
                np.frombuffer(self.start).copy(), np.frombuffer(self.end).copy())

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def id(self, name):
        return self._ids.get(name, -1)


class IterClock:
    """Callback marking the end of each iteration of a traced library solve."""

    def __init__(self):
        self.first = self.last = None
        self.n = 0

    def __call__(self, rec):
        t = perf_counter()
        if self.first is None:
            self.first = t
        self.last = t
        self.n += 1


@dataclass
class SolveSpan:
    """One traced solve: its root span and what is known about it outside."""

    key: str
    solver: str
    root: int
    iters: int          # iterations in the measured window
    first: float        # window start (perf_counter); None = whole root span
    last: float
    records: int        # trace records emitted over the whole solve
    total_iters: int
    reported_calls: int
    m: int
    n: int
    batch: int          # rows per minibatch draw, 0 for full-data oracles


def layer_metrics(tracer, solves, cli_mains, trace_bytes, keys):
    """Per-layer metrics (name -> (value, unit)) from the recorded spans.

    Per-iteration figures of library solves use the steady-state window
    between the ends of the first and last iterations, so one-off work
    before the loop is left out; CLI solves use the whole solver span.
    """
    name, parent, start, end = tracer.arrays()
    dur = end - start
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    tid = tracer.id
    f_eval, value, draw = tid("problems.f_eval"), tid("problems.value"), tid("oracles.draw")
    tot = dict.fromkeys((
        "iters", "metric_calls", "metric_t", "f_evals", "f_eval_t", "values",
        "matvecs", "bytes", "grads", "grads_used", "prox", "prox_t", "draws",
        "draw_self_t", "rows", "cert_upd", "cert_upd_t", "gaps", "gap_t",
        "balance", "balance_t", "loop_self_t", "monitor_t", "solve_t",
        "records", "total_iters"), 0.0)
    per_key = {k: {"matvecs": 0.0, "iters": 0, "reported": 0, "evals": 0}
               for k in keys}
    for sp in solves:
        lo = sp.root + 1
        hi = int(np.searchsorted(start, end[sp.root], side="left"))
        nm, d, pn, pa = name[lo:hi], dur[lo:hi], parent_name[lo:hi], parent[lo:hi]
        if sp.first is None:
            w = np.ones(hi - lo, dtype=bool)
            window = dur[sp.root]
        else:
            w = (start[lo:hi] >= sp.first) & (end[lo:hi] <= sp.last)
            window = sp.last - sp.first

        def count(*names, mask=w):
            return int(np.count_nonzero(mask & np.isin(nm, [tid(x) for x in names])))

        def total(*names, mask=w):
            return float(d[mask & np.isin(nm, [tid(x) for x in names])].sum())

        monitoring = sp.solver not in ALGORITHMIC_VALUE
        full = np.ones(hi - lo, dtype=bool)
        f_evals = count("problems.f_eval")
        mb_draws = count("oracles.draw") if sp.batch else 0
        matvecs = 2 * f_evals + 2 * mb_draws * sp.batch / sp.m
        unused = int(np.count_nonzero(w & (nm == f_eval) & (pn == value)))
        tot["iters"] += sp.iters
        tot["metric_calls"] += count(*METRIC_SPANS)
        tot["metric_t"] += total(*METRIC_SPANS)
        tot["f_evals"] += f_evals
        tot["f_eval_t"] += total("problems.f_eval")
        tot["values"] += count("problems.value")
        tot["matvecs"] += matvecs
        tot["bytes"] += matvecs * 8 * (sp.m * sp.n + sp.m + sp.n)
        tot["grads"] += f_evals + mb_draws
        tot["grads_used"] += f_evals + mb_draws - unused
        tot["prox"] += count(*PROX_SPANS)
        tot["prox_t"] += total(*PROX_SPANS)
        draws = count("oracles.draw")
        tot["draws"] += draws
        tot["draw_self_t"] += total("oracles.draw") - float(
            d[w & (pn == draw)].sum())
        tot["rows"] += draws * (sp.batch or sp.m)
        tot["cert_upd"] += count("certificate.update")
        tot["cert_upd_t"] += total("certificate.update")
        tot["gaps"] += count("certificate.gap")
        tot["gap_t"] += total("certificate.gap")
        tot["balance"] += count("solvers.balance_update")
        tot["balance_t"] += total("solvers.balance_update")
        tot["loop_self_t"] += window - float(d[w & (pa == sp.root)].sum())
        if monitoring:
            tot["monitor_t"] += total("problems.value")
        tot["solve_t"] += window
        tot["records"] += sp.records
        tot["total_iters"] += sp.total_iters
        # whole-solve count of evaluations the algorithm makes, to set
        # against the trace's cum_oracle_calls
        evals = count("problems.f_eval", mask=full) + (
            count("oracles.draw", mask=full) if sp.batch else 0)
        if monitoring:
            evals -= int(np.count_nonzero((nm == f_eval) & (pn == value)))
        k = per_key[sp.key]
        k["matvecs"] += matvecs
        k["iters"] += sp.iters
        k["reported"] += sp.reported_calls
        k["evals"] += evals

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    it = tot["iters"]
    out = {
        "metric.calls_per_iter": (ratio(tot["metric_calls"], it), "1/iter"),
        "metric.us_per_iter": (ratio(tot["metric_t"], it, 1e6), "us/iter"),
        "problems.f_evals_per_iter": (ratio(tot["f_evals"], it), "1/iter"),
        "problems.value_only_per_iter": (ratio(tot["values"], it), "1/iter"),
        "problems.matvecs_per_iter": (ratio(tot["matvecs"], it), "1/iter"),
        "problems.bytes_per_iter": (ratio(tot["bytes"], it), "B/iter"),
        "problems.f_eval_us": (ratio(tot["f_eval_t"], tot["f_evals"], 1e6), "us"),
        "problems.grad_used_ratio": (ratio(tot["grads_used"], tot["grads"]), "ratio"),
        "problems.prox_calls_per_iter": (ratio(tot["prox"], it), "1/iter"),
        "problems.prox_self_us": (ratio(tot["prox_t"], tot["prox"], 1e6), "us"),
        "oracles.draws_per_iter": (ratio(tot["draws"], it), "1/iter"),
        "oracles.draw_self_us": (ratio(tot["draw_self_t"], tot["draws"], 1e6), "us"),
        "oracles.rows_per_iter": (ratio(tot["rows"], it), "rows/iter"),
        "certificate.update_us": (ratio(tot["cert_upd_t"], tot["cert_upd"], 1e6), "us"),
        "certificate.gap_calls_per_iter": (ratio(tot["gaps"], it), "1/iter"),
        "certificate.gap_us": (ratio(tot["gap_t"], tot["gaps"], 1e6), "us"),
        "solvers.balance_update_us": (ratio(tot["balance_t"], tot["balance"], 1e6), "us"),
        "solvers.loop_self_us_per_iter": (ratio(tot["loop_self_t"], it, 1e6), "us/iter"),
        "solvers.monitor_share": (ratio(tot["monitor_t"], tot["solve_t"]), "ratio"),
        "solvers.trace_records_per_iter": (
            ratio(tot["records"], tot["total_iters"]), "1/iter"),
    }
    for k, v in per_key.items():
        out[f"problems.matvecs_per_iter.{k}"] = (ratio(v["matvecs"], v["iters"]), "1/iter")
        out[f"solvers.reported_calls_ratio.{k}"] = (ratio(v["reported"], v["evals"]), "ratio")

    n_cli = len(cli_mains)
    load_t = parse_t = write_t = self_t = 0.0
    parse_rows = 0
    load, parse, write = tid("cli.load_dataset"), tid("dataio.parse_libsvm"), tid("cli.write_trace")
    for root, rows in cli_mains:
        hi = int(np.searchsorted(start, end[root], side="left"))
        nm, d, pa = name[root + 1:hi], dur[root + 1:hi], parent[root + 1:hi]
        load_t += float(d[nm == load].sum())
        parse_t += float(d[nm == parse].sum())
        parse_rows += rows * int(np.count_nonzero(nm == parse))
        write_t += float(d[nm == write].sum())
        solver_t = float(d[(pa == root) & np.isin(
            nm, [tid("solvers." + e) for e in SOLVER_ENTRIES])].sum())
        self_t += dur[root] - solver_t - float(
            d[(pa == root) & np.isin(nm, [load, write])].sum())
    out.update({
        "dataio.load_s": (ratio(load_t, n_cli), "s"),
        "dataio.parse_rows_per_s": (ratio(parse_rows, parse_t), "rows/s"),
        "cli.write_trace_s": (ratio(write_t, n_cli), "s"),
        "cli.trace_bytes": (ratio(trace_bytes, n_cli), "B"),
        "cli.self_s": (ratio(self_t, n_cli), "s"),
    })
    return out
