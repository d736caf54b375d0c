"""The one-pass isotropy weights and the counted free-edge check against
the code they replaced.

``isotropy_weights`` fills the weights of every vertex in one pass on its
first call for a graph, where it once worked out one vertex per call from
the extrema and the edges at that vertex.  ``classify_isolated`` finds a
free sphere between two interior points by counting the tops (interior
points with no up edge) against the room left at the maximum, where it
once looked for a polygon edge with |normal x| = 1 away from the extremal
heights.  The references below keep the old forms and run on the
enumerated corpora and their flips, on the valid 4-point grid graphs and
their flips, and on malformed graphs that reach the weights, an interior
fixed surface among them.
"""

from fractions import Fraction

import pytest

from hamgraphs import (DecoratedGraph, Edge, GraphError, Vertex,
                       affine_normal_form, classify_isolated, flip,
                       graph_to_polygon, isotropy_weights, validate_graph)
from hamgraphs.graph_core import _free_capacity, _weight_table
from hamgraphs.toric_geometry import outward_normal
from test_level_index_reference import HI, LO, MALFORMED, P1, Q1
from test_polygon_reference import grid_graphs


def reference_isotropy_weights(g, vid):
    """isotropy_weights as it was: one vertex per call, read off the
    extrema and the up and down edges at vid, nothing kept."""
    lo, hi = g.min_vertex().id, g.max_vertex().id
    ups = [e.k for e in g.up_edges(vid)]
    downs = [e.k for e in g.down_edges(vid)]
    if g.vertex(vid).kind == "surface":
        return (0, 1) if vid == lo else (-1, 0)
    if vid == lo:
        return tuple(sorted((sorted(ups) + [1, 1])[:2]))
    if vid == hi:
        return tuple(sorted(-k for k in (sorted(downs) + [1, 1])[:2]))
    return (-(downs[0] if downs else 1), ups[0] if ups else 1)


def reference_free_edge(P):
    """classify_isolated's check as it was: an edge of P with |normal x| =
    1 that meets neither the lowest nor the highest height."""
    heights = [y for _, y in P.vertices]
    y_min, y_max = min(heights), max(heights)
    return any(abs(outward_normal(p, q)[0]) == 1
               and y_min not in (p[1], q[1]) and y_max not in (p[1], q[1])
               for p, q in P.edge_list())


def tops_outnumber_room(g):
    """The count classify_isolated makes: more tops than the free spheres
    the maximum can still take."""
    tops = sum(1 for vid in g.interior_ids() if not g.up_edges(vid))
    return tops > _free_capacity(g, g.max_vertex().id)


S = Vertex("s", "surface", Fraction(1, 2), area=Fraction(1), genus=0)
SURFACE_MAX = Vertex("hi", "surface", Fraction(1), area=Fraction(2), genus=0)


def malformed_with_weights():
    """The level-index fixtures that build a graph with a level order, so
    that every vertex has weights, and three graphs with an interior fixed
    surface, with and without edges at it; with the flips of all."""
    out = []
    for vertices, edges in MALFORMED:
        try:
            g = DecoratedGraph(vertices, edges)
        except GraphError:
            continue
        if g._order:
            out.append(g)
    out += [DecoratedGraph([LO, S, HI], []),
            DecoratedGraph([LO, S, P1, Q1, HI],
                           [Edge("lo", "s", 2), Edge("s", "hi", 3),
                            Edge("p", "s", 2), Edge("q", "hi", 2)]),
            DecoratedGraph([LO, S, SURFACE_MAX], [Edge("s", "hi", 2)])]
    return out + [flip(g) for g in out]


@pytest.fixture(scope="module")
def grid_and_flips():
    grid = list(grid_graphs())
    return grid + [flip(g) for g in grid]


def fresh(g):
    """A copy of g with nothing computed on it yet."""
    return DecoratedGraph(list(g.vertices.values()), g.edges)


def assert_weights_match(g):
    want = {vid: reference_isotropy_weights(g, vid) for vid in g.vertices}
    # the first call fills the table, whichever vertex it asks for
    for first in (list(g.vertices)[-1], g.max_vertex().id):
        h = fresh(g)
        assert isotropy_weights(h, first) == want[first], (g, first)
        assert {vid: isotropy_weights(h, vid) for vid in g.vertices} == \
            want, g
    assert _weight_table(fresh(g)) == want, g


def test_weights_match_reference(enumerated_small, grid_and_flips):
    graphs = [rec.graph for rec in enumerated_small]
    graphs += [flip(g) for g in graphs]
    for g in graphs + grid_and_flips:
        assert_weights_match(g)
    assert len(grid_and_flips) == 270


def test_weights_match_reference_on_malformed_graphs():
    graphs = malformed_with_weights()
    for g in graphs:
        assert validate_graph(fresh(g)) != []
        assert_weights_match(g)
    assert sum(v.kind == "surface" and not g.is_extremal(v.id)
               for g in graphs for v in g.vertices.values()) == 6
    assert len(graphs) == 14


def test_free_edge_count_matches_polygon_edges(enumerated, grid_and_flips):
    graphs = [rec.graph for rec in enumerated]
    graphs += [flip(g) for g in graphs]
    isolated = free = 0
    for g in graphs + grid_and_flips:
        try:
            P = graph_to_polygon(g)
        except GraphError:
            continue
        has_free = reference_free_edge(P)
        assert tops_outnumber_room(g) == has_free, g
        free += has_free
        if all(v.kind == "point" for v in g.vertices.values()):
            # no known graph with isolated fixed points has such an edge
            assert not has_free, g
            assert classify_isolated(g) == affine_normal_form(P), g
            isolated += 1
    # graphs with fixed surfaces make the count's True side non-vacuous
    assert isolated > 1500 and free > 10
