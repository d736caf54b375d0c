"""canonical_form against the search it replaced.

The reference below individualises every vertex of the first tied class in
turn, so it tries all k! orders of k interchangeable points.  The current
search individualises one vertex per tie and must give the same listing
and the same digest on every valid graph, because digests name the
enumerated class files.  It refuses a graph that stays tied and is not
valid.
"""

import hashlib
import time
from fractions import Fraction

import pytest

from hamgraphs import (DecoratedGraph, Edge, ValidationError, Vertex, blowup,
                       canonical_form, is_isomorphic, minimal_graph,
                       validate_graph)
from hamgraphs.graph_core import shift
from hamgraphs.rational import fmt_rat


def reference_canonical_form(g, mode="exact"):
    offset = -min(v.moment for v in g.vertices.values()) if mode == "shift" else 0

    def label(v):
        return "%s|%s|%s|%s" % (
            v.kind, fmt_rat(v.moment + offset),
            "-" if v.area is None else fmt_rat(v.area),
            "-" if v.genus is None else v.genus)

    incident = {vid: [] for vid in g.vertices}
    for e in g.edges:
        incident[e.a].append((e.k, e.b))
        incident[e.b].append((e.k, e.a))

    def refine(colors):
        while True:
            new = {}
            for vid in g.vertices:
                around = sorted("%d:%s" % (k, colors[w])
                                for k, w in incident[vid])
                data = colors[vid] + "#" + ",".join(around)
                new[vid] = hashlib.sha256(data.encode()).hexdigest()[:16]
            if len(set(new.values())) == len(set(colors.values())):
                return new
            colors = new

    def listing(colors):
        order = sorted(g.vertices,
                       key=lambda vid: (label(g.vertex(vid)), colors[vid]))
        index = {vid: i for i, vid in enumerate(order)}
        lines = []
        for vid in order:
            lines.append("vertex %d %s" % (index[vid], label(g.vertex(vid))))
        for a, b, k in sorted((min(index[e.a], index[e.b]),
                               max(index[e.a], index[e.b]), e.k)
                              for e in g.edges):
            lines.append("edge %d %d k=%d" % (a, b, k))
        return "\n".join(lines)

    def canon(colors):
        colors = refine(colors)
        classes = {}
        for vid, c in colors.items():
            classes.setdefault(c, []).append(vid)
        tied = [classes[c] for c in sorted(classes) if len(classes[c]) > 1]
        if not tied:
            return listing(colors)
        best = None
        for vid in tied[0]:
            forked = dict(colors)
            forked[vid] += "!"
            text = canon(forked)
            if best is None or text < best:
                best = text
        return best

    text = canon({vid: label(v) for vid, v in g.vertices.items()})
    return hashlib.sha256(text.encode()).hexdigest(), text


def twin_chain(k):
    """ruled(0,0,14,7/2) with its minimum surface blown up k times at size
    1: k edgeless points at one level with equal labels."""
    g = minimal_graph("ruled", 0, 0, 14, Fraction(7, 2))
    for _ in range(k):
        g = blowup(g, g.min_vertex().id, 1)
    return g


def relabel(g, prefix):
    """A copy of g with new vertex ids, listed in reverse order."""
    new = {vid: "%s%02d" % (prefix, i) for i, vid in enumerate(g.vertices)}
    return DecoratedGraph(
        [Vertex(new[v.id], v.kind, v.moment, v.area, v.genus)
         for v in reversed(list(g.vertices.values()))],
        [Edge(new[e.b], new[e.a], e.k) for e in reversed(g.edges)])


def assert_same_form(g, mode):
    form = canonical_form(g, mode)
    assert (form.digest, form.text) == reference_canonical_form(g, mode)


@pytest.mark.parametrize("mode", ["exact", "shift"])
def test_corpus_matches_reference(enumerated_small, mode):
    for rec in enumerated_small:
        assert_same_form(rec.graph, mode)


@pytest.mark.parametrize("k", range(1, 9))
def test_twin_chain_matches_reference(k):
    assert_same_form(twin_chain(k), "exact")


def strands(k):
    """Surfaces at levels 0 and 3 and k weight-2 spheres p_i--q_i from
    level 1 to level 2: the p_i are tied and interchangeable, but no two
    are twins, since each has its own neighbour."""
    F = Fraction
    return DecoratedGraph(
        [Vertex("min", "surface", F(0), F(10), 0),
         Vertex("max", "surface", F(3), F(10) + F(3 * k, 2), 0)]
        + [Vertex("p%d" % i, "point", F(1)) for i in range(k)]
        + [Vertex("q%d" % i, "point", F(2)) for i in range(k)],
        [Edge("p%d" % i, "q%d" % i, 2) for i in range(k)])


@pytest.mark.parametrize("k", range(1, 6))
def test_strands_match_reference(k):
    g = strands(k)
    assert validate_graph(g) == []
    for mode in ("exact", "shift"):
        assert_same_form(g, mode)
        assert_same_form(relabel(g, "v"), mode)


def test_strands_k40_is_fast_and_relabel_invariant():
    g = strands(40)
    copy = relabel(shift(g, Fraction(-5, 3)), "w")
    start = time.perf_counter()
    form, copy_form = canonical_form(g, "shift"), canonical_form(copy, "shift")
    assert time.perf_counter() - start < 1
    assert form == copy_form


def assert_refused_when_tied(g):
    for mode in ("exact", "shift"):
        with pytest.raises(ValidationError):
            canonical_form(g, mode)
        with pytest.raises(ValidationError):
            is_isomorphic(g, relabel(g, "v"), mode)


def test_tied_graph_with_two_up_and_two_down_edges_at_a_point_is_refused():
    # a, b stay tied below c, which has two up and two down edges, so the
    # graph is not valid and one branch need not give the smallest listing
    F = Fraction
    g = DecoratedGraph(
        [Vertex("lo", "point", F(0)), Vertex("a", "point", F(1)),
         Vertex("b", "point", F(1)), Vertex("x", "point", F(1)),
         Vertex("c", "point", F(2)), Vertex("d", "point", F(3)),
         Vertex("e", "point", F(3)), Vertex("hi", "point", F(4))],
        [Edge("a", "c", 2), Edge("b", "c", 2), Edge("x", "c", 3),
         Edge("c", "d", 5), Edge("c", "e", 5), Edge("lo", "a", 7),
         Edge("lo", "b", 7), Edge("lo", "x", 7)])
    assert_refused_when_tied(g)
    assert_refused_when_tied(relabel(g, "v"))


def test_tied_triangle_and_square_on_one_level_is_refused():
    # a triangle and a square of weight-2 edges among seven points at one
    # level: refinement never splits them, a triangle point and a square
    # point are not interchangeable, and the graph is not valid
    ids = ["t0", "t1", "t2", "s0", "s1", "s2", "s3"]
    edges = [Edge("t0", "t1", 2), Edge("t1", "t2", 2), Edge("t2", "t0", 2),
             Edge("s0", "s1", 2), Edge("s1", "s2", 2), Edge("s2", "s3", 2),
             Edge("s3", "s0", 2)]
    for order in (ids, ids[::-1]):
        g = DecoratedGraph([Vertex(vid, "point", Fraction(1))
                            for vid in order], edges)
        assert_refused_when_tied(g)


def test_twin_chain_k12_is_fast_and_relabel_invariant():
    g = twin_chain(12)
    copy = relabel(shift(g, Fraction(-5, 3)), "w")
    start = time.perf_counter()
    form, copy_form = canonical_form(g, "shift"), canonical_form(copy, "shift")
    assert time.perf_counter() - start < 10
    assert form == copy_form
    assert canonical_form(g, "exact") != canonical_form(copy, "exact")


def distinct_label_graphs():
    """Graphs whose vertex labels are all distinct, and whose listing is
    therefore found without refinement."""
    graphs = [minimal_graph("cp2", 1, 2, Fraction(-1, 3)),
              minimal_graph("hirzebruch", "left", 1, 2, 3, 2, 1, 5),
              minimal_graph("ruled", 1, 2, 3, 1, Fraction(1, 2))]
    g = minimal_graph("cp2", 1, 1)
    g = blowup(g, "int", Fraction(1, 3))
    g = blowup(g, g.max_vertex().id, Fraction(1, 5))
    return graphs + [g]


@pytest.mark.parametrize("mode", ["exact", "shift"])
def test_distinct_labels_match_reference_in_both_id_orders(mode):
    for g in distinct_label_graphs():
        # a common shift keeps distinct labels distinct
        labels = [reference_canonical_form(DecoratedGraph([v]))[1]
                  for v in g.vertices.values()]
        assert len(set(labels)) == len(labels)
        for h in (g, relabel(g, "v"), relabel(relabel(g, "v"), "w")):
            assert_same_form(h, mode)
            assert canonical_form(h, mode) == canonical_form(g, mode)


def test_equal_labels_told_apart_by_edges_only():
    # a and b carry the same label; only their edges (weight 2 to lo,
    # weight 3 to hi) separate them, so refinement must still run
    F = Fraction
    g = DecoratedGraph(
        [Vertex("lo", "point", F(0)), Vertex("a", "point", F(1)),
         Vertex("b", "point", F(1)), Vertex("hi", "point", F(2))],
        [Edge("lo", "a", 2), Edge("b", "hi", 3)])
    swapped = DecoratedGraph(list(g.vertices.values())[::-1],
                             [Edge("lo", "b", 2), Edge("a", "hi", 3)])
    for mode in ("exact", "shift"):
        assert_same_form(g, mode)
        assert_same_form(swapped, mode)
        assert canonical_form(swapped, mode) == canonical_form(g, mode)
        assert canonical_form(relabel(g, "v"), mode) == \
            canonical_form(g, mode)
