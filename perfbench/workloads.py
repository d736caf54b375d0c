"""The three benchmark workloads: inputs, the timed operation, and checks.

Each workload builds its inputs from minimal models through the public
``hamgraphs`` API and serialises them to JSON during set-up; a timed
operation receives only that JSON.  A workload object exposes

* ``ops``: the operation list of one pass;
* ``prepare(op)``, untimed, then ``run(op)``: the timed call, returning a
  raw result;
* ``finish(op, result)``, untimed: the op's output, from which ``text``
  gives the bytes behind the workload digest, ``check`` a problem string
  or ``None``, ``graphs`` the graphs handled, and ``new_classes`` and
  ``written`` what the traced run reports;
* ``warm_up()``: runs every kind of op once before timing.

Why these workloads (Karshon's classification is used in two directions):

* ``enumerate`` is the forward closure from minimal models by blow-ups.
  It never blows down or reduces, so it is the bypass workload for changes
  to blow-down and reduction.
* ``reduce`` is the backward direction: blow-down site search over all four
  site families, candidate validation and the exhaustive minimal-model
  search.  It creates no classes and writes no files.
* ``inspect`` covers the read-only library queries (densities, polygons,
  homology, chain arithmetic) that the other two barely touch, re-validates
  unchanged graphs, and runs ``canonical_form`` on graphs with tied classes.
"""

import contextlib
import io
import json
import os
import random
import shutil
import sys
from fractions import Fraction

from hamgraphs import (classify, cli, dh_measure, graph_core, homology,
                       toric_geometry)
from hamgraphs.blowup_calculus import blowup
from hamgraphs.classify import (enumerate_graphs, is_toric_extendable,
                                minimal_graph)
from hamgraphs.dh_measure import polygon_pushforward
from hamgraphs.graph_core import (DecoratedGraph, Edge, Vertex,
                                  graph_from_json, graph_to_json,
                                  isotropy_weights, shift, validate_graph)
from hamgraphs.rational import fmt_rat
from hamgraphs.toric_geometry import validate_delzant

# Sizes of one pass.  "full" is what the benchmark measures; "tiny" is the
# smoke run that only checks every metric is printed.
SIZES = {
    "full": {"depth": 4, "corpus_depth": 3, "per_depth": (None, 6, 8),
             "surface_chain": 5, "twin_chain": 7},
    "tiny": {"depth": 2, "corpus_depth": 2, "per_depth": (1, 1, 0),
             "surface_chain": 2, "twin_chain": 3},
}

# Families of the sampled corpus.  Hirzebruch and cp2-surface seeds are left
# out: they are themselves blow-ups of cp2, so a reduction may legitimately
# take more steps than the blow-ups that built the input.
CP2_WEIGHTS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1))
RULED_TYPES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _rat(rng, lo, hi, dens=(1, 2, 3)):
    """A rational with numerator in [lo, hi] over a drawn denominator."""
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _dumps(obj):
    return json.dumps(obj, sort_keys=True)


def _seed_families(rng):
    """(key, graph) for every corpus family, labels drawn from rng."""
    out = []
    for m, n in CP2_WEIGHTS:
        out.append(("cp2(%d,%d)" % (m, n),
                    minimal_graph("cp2", m, n, _rat(rng, -6, 6),
                                  _rat(rng, 1, 6))))
    for genus, n in RULED_TYPES:
        out.append(("ruled(%d,%d)" % (genus, n),
                    minimal_graph("ruled", genus, n, _rat(rng, 2, 12, (1, 2)),
                                  _rat(rng, 1, 6, (1, 2)), _rat(rng, -6, 6))))
    return out


def _corpus_sample(rng, size):
    """Graphs with 1..corpus_depth blow-ups, stratified by family and depth
    so that every seed draws a pass of similar cost: per family, all of
    depth 1 (when the quota is None) and a drawn quota of each deeper
    depth.  Returns (family, depth, graph) triples."""
    recs = enumerate_graphs(_seed_families(rng), size["corpus_depth"])
    strata = {}
    for rec in recs:
        if rec.depth:
            strata.setdefault((rec.seed_key, rec.depth), []).append(rec)
    sample = []
    for (key, depth) in sorted(strata):
        group = strata[(key, depth)]
        quota = size["per_depth"][depth - 1]
        if quota is not None and quota < len(group):
            group = rng.sample(group, quota)
        sample += [(key, depth, rec.graph) for rec in group]
    rng.shuffle(sample)
    return sample


def _relabel_shift(rng, g):
    """A copy of g with drawn vertex ids and all levels shifted by a drawn
    rational, built through the public graph API."""
    g = shift(g, _rat(rng, -20, 20, (1, 2, 3, 5)))
    ids = list(g.vertices)
    names = ["v%02d" % i for i in range(len(ids))]
    rng.shuffle(names)
    new = dict(zip(ids, names))
    vertices = [Vertex(new[v.id], v.kind, v.moment, v.area, v.genus)
                for v in g.vertices.values()]
    edges = [Edge(new[e.a], new[e.b], e.k) for e in g.edges]
    rng.shuffle(vertices)
    return DecoratedGraph(vertices, edges)


def _files_in(path):
    """{name: bytes} of every file in a directory."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Enumerate:
    """CLI ``enumerate`` of four seed families in one call, writing class
    files and ``index.json``; one op is that call."""

    def __init__(self, seed, size, workdir):
        rng = random.Random("enumerate:%d" % seed)

        def cp2(m, n):
            return "cp2:%d,%d,%s,%s" % (m, n, fmt_rat(_rat(rng, -6, 6)),
                                        fmt_rat(_rat(rng, 1, 6)))

        def ruled(n):
            return "ruled:0,%d,%s,%s,%s" % (
                n, fmt_rat(_rat(rng, 2, 12, (1, 2))),
                fmt_rat(_rat(rng, 1, 6, (1, 2))), fmt_rat(_rat(rng, -6, 6)))

        self.seeds = [cp2(1, 1), cp2(1, 2), ruled(1), ruled(0)]
        self.ops = [{"depth": size["depth"],
                     "out": os.path.join(workdir, "classes")}]

    def _argv(self, op):
        argv = ["enumerate"]
        for text in self.seeds:
            argv += ["--seed", text]
        return argv + ["--max-blowups", str(op["depth"]), "--out", op["out"]]

    def prepare(self, op):
        shutil.rmtree(op["out"], ignore_errors=True)

    def run(self, op):
        return cli.run(self._argv(op))

    def finish(self, op, code):
        files = _files_in(op["out"]) if os.path.isdir(op["out"]) else {}
        return {"code": code, "files": files}

    def graphs(self, output):
        return sum(1 for name in output["files"] if name != "index.json")

    def text(self, output):
        parts = ["code %d" % output["code"]]
        for name, data in output["files"].items():
            parts.append(name)
            parts.append(data.decode())
        return "\n".join(parts)

    def check(self, op, output):
        if output["code"] != 0:
            return "enumerate exited %d" % output["code"]
        files = output["files"]
        if "index.json" not in files:
            return "no index.json"
        index = json.loads(files["index.json"])
        listed = sorted(row["file"] for row in index)
        written = sorted(name for name in files if name != "index.json")
        if listed != written:
            return "index.json does not list exactly the written files"
        for name in written:
            problems = validate_graph(graph_from_json(files[name].decode()))
            if problems:
                return "%s: %s" % (name, "; ".join(problems))
        return None

    def new_classes(self, output):
        index = json.loads(output["files"]["index.json"])
        return sum(1 for row in index if row["blowups"] > 0)

    def written(self, output):
        files = output["files"]
        return len(files), sum(len(data) for data in files.values())

    def warm_up(self):
        op = dict(self.ops[0], depth=1)
        code = self.run(op)
        shutil.rmtree(op["out"], ignore_errors=True)
        if code != 0:
            raise RuntimeError("warm-up enumerate exited %d" % code)


def _call_cli(argv, stdin_text):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class Reduce:
    """CLI ``blowdown`` (list sites) and ``minimal`` on sampled graphs and
    on a surface blow-up chain; one op is one graph."""

    def __init__(self, seed, size, workdir):
        rng = random.Random("reduce:%d" % seed)
        inputs = [(depth, g) for _, depth, g in _corpus_sample(rng, size)]
        # ruled(0,0,r,s) with its minimum surface blown up k times, the
        # i-th time at size 1/2^i: the minimal-model search is factorial
        # in k
        g = minimal_graph("ruled", 0, 0, rng.randint(80, 120),
                          rng.randint(8, 12), _rat(rng, -6, 6))
        for k in range(1, size["surface_chain"] + 1):
            g = blowup(g, g.min_vertex().id, Fraction(1, 2 ** k))
            inputs.append((k, g))
        self.ops = [{"blowups": depth, "json": _dumps(graph_to_json(g))}
                    for depth, g in inputs]

    def prepare(self, op):
        pass

    def run(self, op):
        return (_call_cli(["blowdown"], op["json"]),
                _call_cli(["minimal"], op["json"]))

    def finish(self, op, result):
        return result

    def graphs(self, output):
        return 1

    def text(self, output):
        (code_bd, out_bd), (code_min, out_min) = output
        return "blowdown %d\n%sminimal %d\n%s" % (code_bd, out_bd,
                                                  code_min, out_min)

    def check(self, op, output):
        (code_bd, out_bd), (code_min, out_min) = output
        if code_bd or code_min:
            return "exit codes %d (blowdown), %d (minimal)" % (code_bd,
                                                              code_min)
        sites = json.loads(out_bd)["sites"]
        result = json.loads(out_min)
        if result["family"] is None:
            return "minimal family is null"
        steps = result["steps"]
        if len(steps) != op["blowups"]:
            return "%d blow-down steps for %d blow-ups" % (len(steps),
                                                           op["blowups"])
        if steps and steps[0] not in sites:
            return "first reduction step is not a listed blow-down site"
        problems = validate_graph(graph_from_json(result["minimal"]))
        if problems:
            return "minimal graph invalid: %s" % "; ".join(problems)
        return None

    def new_classes(self, output):
        return 0

    def written(self, output):
        (_, out_bd), (_, out_min) = output
        return 0, len(out_bd.encode()) + len(out_min.encode())

    def warm_up(self):
        for op in self.ops[:3] + self.ops[-2:-1]:
            self.run(op)


class Inspect:
    """Read-only library queries on sampled graphs and on a twin chain;
    one op is one graph and every query that applies to it."""

    def __init__(self, seed, size, workdir):
        rng = random.Random("inspect:%d" % seed)
        graphs = [g for _, _, g in _corpus_sample(rng, size)]
        # a ruled minimum surface blown up k times at size 1: k points at
        # one level with equal labels, so canonical_form meets tied classes
        g = minimal_graph("ruled", 0, rng.randint(0, 1),
                          rng.randint(size["twin_chain"] + 1, 14),
                          Fraction(rng.randint(3, 10), 2), _rat(rng, -6, 6))
        for _ in range(size["twin_chain"]):
            g = blowup(g, g.min_vertex().id, 1)
            graphs.append(g)
        self.ops = []
        for g in graphs:
            kinds = [v.kind for v in g.vertices.values()]
            self.ops.append({
                "json": _dumps(graph_to_json(g)),
                "copy": _dumps(graph_to_json(_relabel_shift(rng, g))),
                "polygon": is_toric_extendable(g),
                "isolated": "surface" not in kinds,
                "homology": kinds.count("surface") == 2,
            })

    def prepare(self, op):
        pass

    def graphs(self, output):
        return 1

    def run(self, op):
        # calls go through the module attributes, which the tracer wraps
        g = graph_core.graph_from_json(op["json"])
        copy = graph_core.graph_from_json(op["copy"])
        out = {"problems": graph_core.validate_graph(g),
               "density": dh_measure.density(g),
               "extremal": dh_measure.extremal_self_intersections(g),
               "iso": graph_core.is_isomorphic(g, copy, "shift")}
        if op["polygon"]:
            out["polygon"] = toric_geometry.graph_to_polygon(g)
        if op["isolated"]:
            out["classified"] = classify.classify_isolated(g)
        if op["homology"]:
            out["matrix"] = homology.intersection_matrix(g)
            out["values"] = homology.class_values(g)
        return out

    def finish(self, op, out):
        doc = {"problems": out["problems"],
               "density": out["density"].to_json(),
               "e_min": fmt_rat(out["extremal"].e_min),
               "e_max": fmt_rat(out["extremal"].e_max),
               "iso": out["iso"]}
        for key in ("polygon", "classified"):
            if key in out:
                doc[key] = out[key].to_json()
        if "matrix" in out:
            doc["matrix"] = out["matrix"].to_json()
            doc["values"] = {k: fmt_rat(v) for k, v in out["values"].items()}
        return {"doc": doc, "raw": out}

    def text(self, output):
        return _dumps(output["doc"])

    def check(self, op, output):
        out = output["raw"]
        if out["problems"]:
            return "invalid: %s" % "; ".join(out["problems"])
        if not out["iso"]:
            return "relabelled shifted copy not isomorphic"
        g = graph_from_json(op["json"])
        weights = [isotropy_weights(g, vid) for vid in g.interior_ids()]
        ext = out["extremal"]
        if ext.e_min + ext.e_max != -sum(Fraction(1, -w1 * w2)
                                         for w1, w2 in weights):
            return "e_min + e_max != -sum 1/(m_p n_p)"
        if "polygon" in out and \
                polygon_pushforward(out["polygon"]) != out["density"]:
            return "density differs from the polygon pushforward"
        if "classified" in out and validate_delzant(out["classified"]):
            return "classify_isolated polygon is not Delzant"
        if "matrix" in out and \
                set(out["values"]) != set(out["matrix"].labels):
            return "class values do not match the spanning curves"
        return None

    def new_classes(self, output):
        return 0

    def written(self, output):
        return 0, 0

    def warm_up(self):
        for op in self.ops[:5] + [o for o in self.ops if o["isolated"]][:1] \
                + [o for o in self.ops if o["homology"]][:1]:
            self.run(op)


def make(name, seed, size, workdir):
    cls = {"enumerate": Enumerate, "reduce": Reduce, "inspect": Inspect}[name]
    return cls(seed, SIZES[size], workdir)
