#!/usr/bin/env python3
"""hamgraphs benchmark: end-to-end metrics, or a traced per-layer table.

Run from the repository root:

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7  # each in a fresh process

One run of a workload:

1. set-up: import ``hamgraphs`` and build the workload's inputs (JSON)
   from minimal models; ``setup_s`` is the median over this process and
   fresh set-up-only processes, each timed from its start, before
   ``import hamgraphs``, until its inputs are ready;
2. warm-up: every kind of op once, untimed;
3. timed passes over the op list until ``--seconds`` have passed, with
   samples of the machine's speed between ops (see ``speed.py``); all
   times are reported in reference seconds;
4. with ``--trace 1``, a peak-memory pass under ``tracemalloc`` and then
   one pass under the tracer (see ``tracer.py``);
5. checks: every op of the first pass is checked, and every later pass
   must reproduce the first pass's outputs byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

import speed  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("enumerate", "reduce", "inspect")
DEFAULT_SEED = 1  # the held-out seed is 7; see README.md
SETUP_SAMPLES = {"full": 5, "tiny": 2}
CHILD_TIMEOUT_S = 170

# name -> unit, in print order.  failed_frac is printed but kept out of the
# JSON metrics, which must never read 0; the JSON carries the counts.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("graphs_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"))


def _per_layer_specs():
    """(name, unit, in_json, reader) for every per-layer metric.

    Time metrics that read exactly 0 on some workload by design (a layer
    or function that workload never calls) are printed in the table but
    left out of the JSON; their call counts are in the JSON."""
    def calls(fn, **kw):
        return lambda t, c: t.fn_calls(fn, **kw)

    def self_s(fn):
        return lambda t, c: t.fn_self(fn) / c["factor"]

    def total_s(fn):
        return lambda t, c: t.fn_total(fn) / c["factor"]

    def ratio(num, den):
        return num / den if den else 0.0

    specs = []
    for layer in LAYERS:
        timed_everywhere = layer in ("classify", "graph_core", "rational")
        specs += [
            (layer + ".calls", "count", True,
             lambda t, c, la=layer: t.layer_calls(la)),
            (layer + ".self_s", "s", timed_everywhere,
             lambda t, c, la=layer: t.layer_self(la) / c["factor"]),
            (layer + ".fraction_cmp", "count", True,
             lambda t, c, la=layer: t.cmp[la]),
        ]
    specs += [
        ("graph_core.validate_graph.calls", "count", True,
         calls("graph_core.validate_graph")),
        ("graph_core.validate_graph.self_s", "s", True,
         self_s("graph_core.validate_graph")),
        ("graph_core.validate_distinct_ratio", "ratio", True,
         lambda t, c: ratio(t.validate_distinct,
                            t.fn_calls("graph_core.validate_graph"))),
        ("graph_core.extrema.calls", "count", True,
         lambda t, c: t.fn_calls("graph_core.DecoratedGraph.min_vertex")
         + t.fn_calls("graph_core.DecoratedGraph.max_vertex")),
        ("graph_core.isotropy_weights.calls", "count", True,
         calls("graph_core.isotropy_weights")),
        ("graph_core.edges_at.calls", "count", True,
         calls("graph_core.DecoratedGraph.edges_at")),
        ("graph_core.canonical_form.calls", "count", True,
         calls("graph_core.canonical_form")),
        ("graph_core.canonical_form.twin_calls", "count", True,
         lambda t, c: t.twin_calls),
        ("graph_core.canonical_form.twin_s", "s", False,
         lambda t, c: t.twin_s / c["factor"]),
        ("graph_core.canonical_form.total_s", "s", False,
         total_s("graph_core.canonical_form")),
        ("graph_core.extend_graph.calls", "count", True,
         calls("graph_core.extend_graph")),
        ("graph_core.extend_graph.total_s", "s", False,
         total_s("graph_core.extend_graph")),
        ("blowup_calculus.blowup.calls", "count", True,
         calls("blowup_calculus.blowup")),
        ("blowup_calculus.blowup_symbolic.calls", "count", True,
         calls("blowup_calculus.blowup_symbolic")),
        ("blowup_calculus.max_size.total_s", "s", False,
         total_s("blowup_calculus.max_size")),
        ("blowup_calculus.blowdown_sites.calls", "count", True,
         calls("blowup_calculus.blowdown_sites")),
        ("blowup_calculus.blowdown_sites.total_s", "s", False,
         total_s("blowup_calculus.blowdown_sites")),
        ("blowup_calculus.reduce_to_minimal.total_s", "s", False,
         total_s("blowup_calculus.reduce_to_minimal")),
        ("blowup_calculus.reduce_to_minimal.states", "count", True,
         calls("classify.match_minimal_family",
               parent="blowup_calculus.reduce_to_minimal")),
        ("blowup_calculus.candidates_checked", "count", True,
         calls("dh_measure.extremal_self_intersections",
               parent_layer="blowup_calculus")),
        ("classify.match_minimal_family.calls", "count", True,
         calls("classify.match_minimal_family")),
        ("classify.enumerate_graphs.total_s", "s", False,
         total_s("classify.enumerate_graphs")),
        ("classify.dedup_ratio", "ratio", True,
         lambda t, c: ratio(c["new_classes"], t.fn_calls(
             "blowup_calculus.blowup", parent="classify.enumerate_graphs"))),
        ("classify.classify_isolated.calls", "count", True,
         calls("classify.classify_isolated")),
        ("dh_measure.density.calls", "count", True,
         calls("dh_measure.density")),
        ("dh_measure.extremal_self_intersections.calls", "count", True,
         calls("dh_measure.extremal_self_intersections")),
        ("toric_geometry.graph_to_polygon.calls", "count", True,
         calls("toric_geometry.graph_to_polygon")),
        ("toric_geometry.affine_normal_form.calls", "count", True,
         calls("toric_geometry.affine_normal_form")),
        ("homology.intersection_matrix.calls", "count", True,
         calls("homology.intersection_matrix")),
        ("cli.run.calls", "count", True, calls("cli.run")),
        ("cli.files_written", "count", True, lambda t, c: c["files"]),
        ("cli.bytes_written", "bytes", True, lambda t, c: c["bytes"]),
        ("rational.fmt_rat.calls", "count", True, calls("rational.fmt_rat")),
        ("rational.parse_rat.calls", "count", True,
         calls("rational.parse_rat")),
        ("trace_overhead_s", "s", True, lambda t, c: c["overhead"]),
        ("peak_mem_mb", "MB", True, lambda t, c: c["peak"] / 1e6),
    ]
    return specs


PER_LAYER = _per_layer_specs()


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long smoke run of the same code")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _quantile(values, q):
    """Linear-interpolation quantile (statistics' inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Runs the passes of one workload and checks their outputs."""

    def __init__(self, wl):
        self.wl = wl
        self.reference = None    # per-op output texts of the first pass
        self.failed = 0
        self.attempted = 0
        self.problems = []
        self.first_outputs = None

    def one_pass(self, tracer=None, memory=False, meter=None):
        """Run every op once, ticking the speed meter between ops; returns
        (op seconds, peak bytes)."""
        wl = self.wl
        seconds, texts, outputs, peak = [], [], [], 0
        for i, op in enumerate(wl.ops):
            if meter:
                meter.tick()
            wl.prepare(op)
            if tracer is not None:
                tracer.install()
            if memory:
                tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                result, error = wl.run(op), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, "%s: %s" % (type(exc).__name__, exc)
            spent = time.perf_counter() - start
            if memory:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            if tracer is not None:
                tracer.uninstall()
            seconds.append(spent)
            output = None if error else wl.finish(op, result)
            text = error if error else wl.text(output)
            texts.append(hashlib.sha256(text.encode()).hexdigest())
            if self.reference is None:
                outputs.append(output)
            self.attempted += 1
            if error:
                self._fail(i, error)
            elif self.reference is not None and \
                    texts[-1] != self.reference[i]:
                self._fail(i, "output differs from the first pass")
        if self.reference is None:
            self.reference = texts
            self.first_outputs = outputs
            for i, (op, output) in enumerate(zip(wl.ops, outputs)):
                if output is not None:
                    problem = wl.check(op, output)
                    if problem:
                        self._fail(i, problem)
        return seconds, peak

    def timed_pass(self):
        """One pass under a speed meter; returns (op times in reference
        seconds, the pass's speed factor)."""
        meter = speed.Meter()
        seconds, _ = self.one_pass(meter=meter)
        meter.tick(force=True)
        factor = meter.factor()
        return [s / factor for s in seconds], factor

    def _fail(self, i, problem):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append("op %d: %s" % (i, problem))

    def digest(self):
        return hashlib.sha256("\n".join(self.reference).encode()).hexdigest()

    def graphs(self):
        return sum(self.wl.graphs(o) for o in self.first_outputs
                   if o is not None)


def _timed_passes(runner, budget):
    """Passes until the budget is spent (at least one).  Returns the pass
    time, as the sum over ops of each op's median across passes (a burst of
    load on a shared machine then moves only the passes it hits), and
    every op sample."""
    passes, factors = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < budget:
        seconds, factor = runner.timed_pass()
        passes.append(seconds)
        factors.append(factor)
    wall = sum(statistics.median(samples) for samples in zip(*passes))
    return wall, factors, [s for seconds in passes for s in seconds]


def _setup_samples(args, own):
    samples = [own]
    for _ in range(SETUP_SAMPLES[args.size] - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--size", args.size,
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed: %s" % proc.stderr)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _print_metric(name, value, unit, note=""):
    print("  %-46s %14.6g %-6s %s" % (name, value, unit, note))


def _run_workload(args, workdir):
    import workloads

    wl = workloads.make(args.workload, args.seed, args.size, workdir)
    setup_own = (time.perf_counter() - T_START) / speed.factor_now()
    if args.setup_only:
        print(repr(setup_own))
        return 0
    runner = Runner(wl)
    result = {"metrics": {}}
    print("workload %s  seed %d  size %s  trace %d" % (
        args.workload, args.seed, args.size, args.trace))
    setups = [] if args.trace else _setup_samples(args, setup_own)
    wl.warm_up()
    wall, factors, op_seconds = _timed_passes(runner, args.seconds)
    print("  speed factor %.3f (median of %d passes; times below are in "
          "reference seconds)" % (statistics.median(factors), len(factors)))
    if args.trace:
        # the memory pass runs here, not in the end-to-end run: tracemalloc
        # slows reduce about fivefold
        tracemalloc.start()
        _, peak = runner.one_pass(memory=True)
        tracemalloc.stop()
        tracer = Tracer()
        before = speed.factor_now()
        traced, _ = runner.one_pass(tracer=tracer)
        factor = (before + speed.factor_now()) / 2
        traced = sum(traced) / factor
        context = {"overhead": traced - wall, "factor": factor,
                   "peak": peak, "new_classes": 0, "files": 0, "bytes": 0}
        for output in runner.first_outputs:
            if output is not None:
                files, size = wl.written(output)
                context["files"] += files
                context["bytes"] += size
                context["new_classes"] += wl.new_classes(output)
        _report_layers(tracer, context, result, args.workload, wall, traced)
    else:
        graphs = runner.graphs()
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "graphs_per_s": graphs / wall,
            "op_p50_ms": 1e3 * statistics.median(op_seconds),
            "op_p90_ms": 1e3 * _quantile(op_seconds, 90),
        }
        notes = {
            "setup_s": "median of %d set-ups" % len(setups),
            "wall_s": "%d passes of %d ops, per-op medians" % (
                len(factors), len(wl.ops)),
            "graphs_per_s": "%d graphs per pass" % graphs,
            "op_p50_ms": "%d op samples" % len(op_seconds),
            "op_p90_ms": "%d op samples" % len(op_seconds),
        }
        for name, unit in END_TO_END:
            _print_metric(name, metrics[name], unit, notes[name])
            result["metrics"][name] = {"value": metrics[name], "unit": unit}
    failed_frac = runner.failed / runner.attempted
    _print_metric("failed_frac", failed_frac, "ratio",
                  "%d of %d ops" % (runner.failed, runner.attempted))
    print("  digest sha256:%s" % runner.digest())
    for problem in runner.problems:
        print("  FAILED %s" % problem)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": result["metrics"]}
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def _report_layers(tracer, context, result, workload, wall, traced):
    print("  untraced pass %.4f s, traced pass %.4f s" % (wall, traced))
    for name, unit, in_json, reader in PER_LAYER:
        value = reader(tracer, context)
        _print_metric(name, value, unit, "" if in_json else "(table only)")
        if in_json:
            result["metrics"][name] = {"value": value, "unit": unit}
    total = sum(tracer.self_s)
    print("  top self-time hot spots:")
    for name, seconds in tracer.hot_spots(3):
        print("    %-44s %10.4f s  %5.1f %%" % (
            name, seconds / context["factor"], 100 * seconds / total))
    checks = {
        "no blow-down or reduction spans":
            workload == "reduce" or not any(
                tracer.fn_calls(f) for f in (
                    "blowup_calculus.blowdown_sites",
                    "blowup_calculus.blowdown",
                    "blowup_calculus.reduce_to_minimal")),
        "no blow-up spans":
            workload != "inspect" or not any(
                tracer.fn_calls(f) for f in (
                    "blowup_calculus.blowup",
                    "blowup_calculus.blowup_symbolic",
                    "blowup_calculus.blowup_sites")),
        "tied-class canonical_form only in inspect":
            (workload == "inspect") == (tracer.twin_calls > 0),
    }
    for claim, holds in checks.items():
        print("  design: %-42s %s" % (claim, "holds" if holds
                                         else "does not hold"))
    print("  tied-class canonical_form: %d of %d calls, %.4f of %.4f s" % (
        tracer.twin_calls, tracer.fn_calls("graph_core.canonical_form"),
        tracer.twin_s / context["factor"],
        tracer.fn_total("graph_core.canonical_form") / context["factor"]))


def _run_all(args):
    """Each workload in a fresh process, so caches, peak memory and set-up
    time of one cannot leak into the next."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hamgraphs", "__init__.py")):
        print("error: no hamgraphs sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
