"""The backtracking search for free spheres, kept as a reference for
``extend_graph``.

``extend_graph`` builds the first arrangement of the depth-first search
directly, without backtracking.  The reference below is that search; the
tests check that both give the same free spheres and the same refusal on
the enumerated corpus, on three points at one level, on three weight-2
spheres across one level, and on random combinatorial structures.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgraphs import (DecoratedGraph, Edge, NoExtensionError, Vertex, blowup,
                       extend_graph, minimal_graph, require_valid)
from hamgraphs.graph_core import _free_capacity

MESSAGE = "no arrangement of free spheres with at most two chains exists"


def reference_free_edges(g):
    """The sorted free spheres of the full backtracking search, or None
    when no arrangement exists."""
    require_valid(g)
    lo, hi = g.min_vertex().id, g.max_vertex().id
    interiors = g.interior_ids()
    need_up = [vid for vid in interiors if not g.up_edges(vid)]
    need_up.sort(key=lambda vid: (-g.moment(vid), vid))

    def capacity(vid, frees):
        # the room _free_capacity leaves, less the free spheres chosen
        return _free_capacity(g, vid) - sum(vid in f for f in frees)

    def search(i, frees):
        if i == len(need_up):
            extra = []
            cap_lo = capacity(lo, frees)
            for vid in interiors:
                has_down = bool(g.down_edges(vid)) or any(
                    h == vid for _, h in frees)
                if not has_down:
                    if cap_lo <= 0:
                        return None
                    cap_lo -= 1
                    extra.append((lo, vid))
            return frees + extra
        v = need_up[i]
        yv = g.moment(v)
        candidates = []
        if capacity(hi, frees) > 0:
            candidates.append(hi)
        for w in interiors:
            if g.moment(w) > yv and not g.down_edges(w) and not any(
                    high == w for _, high in frees):
                candidates.append(w)
        for w in candidates:
            result = search(i + 1, frees + [(v, w)])
            if result is not None:
                return result
        return None

    frees = search(0, [])
    return None if frees is None else sorted(frees)


def no_extension_chain(k):
    """ruled(0, 0, 100, 10) with its minimum surface blown up at sizes
    1/2, ..., 1/2^k and then three times at 1/2^(k+1): the last three
    points share a level, so no two chains can hold them."""
    g = minimal_graph("ruled", 0, 0, 100, 10)
    sizes = [Fraction(1, 2 ** i) for i in range(1, k + 1)]
    for lam in sizes + [Fraction(1, 2 ** (k + 1))] * 3:
        g = blowup(g, g.min_vertex().id, lam)
    return g


def crossing_spheres(n):
    """ruled(0, 0, 1000, 100) with its minimum surface blown up at sizes
    3, 31/10 and 32/10 and each new point blown up at size 2, which gives
    three weight-2 spheres across level 3, and then the minimum blown up
    again at sizes 10 + i/7 for i < n: n + 8 vertices, no three of them
    on one level, and no extension."""
    g = minimal_graph("ruled", 0, 0, 1000, 100)
    new = []
    for lam in (3, Fraction(31, 10), Fraction(32, 10)):
        before = set(g.vertices)
        g = blowup(g, g.min_vertex().id, lam)
        new += set(g.vertices) - before
    for vid in new:
        g = blowup(g, vid, 2)
    for i in range(n):
        g = blowup(g, g.min_vertex().id, 10 + Fraction(i, 7))
    return g


def check_against_reference(g):
    """Whether g has an extension; asserts extend_graph agrees with the
    reference on the free spheres or on the refusal."""
    expected = reference_free_edges(g)
    if expected is None:
        with pytest.raises(NoExtensionError) as info:
            extend_graph(g)
        assert str(info.value) == MESSAGE
        return False
    ext = extend_graph(g)
    assert ext.free_edges == expected
    assert len(ext.branches) <= 2
    return True


def test_matches_reference_on_corpus(enumerated):
    extended = [check_against_reference(rec.graph) for rec in enumerated]
    assert extended.count(False) >= 1
    assert extended.count(True) > 800


@pytest.mark.parametrize("k", [1, 4, 8])
def test_matches_reference_on_no_extension_chain(k):
    assert not check_against_reference(no_extension_chain(k))


def test_three_on_a_level_is_refused_at_once():
    # the full search grows about 2.2-fold per point and took 11 s at
    # k = 16 on a 2-core machine (Python 3.11)
    g = no_extension_chain(16)
    assert len(g.vertices) == 21
    start = time.perf_counter()
    with pytest.raises(NoExtensionError, match=MESSAGE):
        extend_graph(g)
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("n", [0, 6, 12])
def test_matches_reference_on_crossing_spheres(n):
    # the reference tries every arrangement: 0.1 s at n = 10, about x2
    # per point
    g = crossing_spheres(n)
    assert len(g.vertices) == n + 8
    assert not check_against_reference(g)


def test_crossing_spheres_are_refused_at_once():
    # the backtracking search took 1.9 s at n = 14 and 7.9 s at n = 16 on
    # a 2-core machine (Python 3.11)
    g = crossing_spheres(40)
    start = time.perf_counter()
    with pytest.raises(NoExtensionError, match=MESSAGE):
        extend_graph(g)
    assert time.perf_counter() - start < 0.1


@st.composite
def structures(draw):
    """A combinatorial structure that extension reads: 0 to 9 interior
    points on a few levels, extrema that are points or surfaces, and
    recorded spheres with at most one up and one down sphere at an
    interior point, at most two at an isolated extremum and none at a
    surface.  Labels that extension does not read are left unchecked."""
    levels = draw(st.lists(st.integers(1, 6), max_size=9))

    def extremum(vid, y):
        if draw(st.booleans()):
            return Vertex(vid, "point", Fraction(y))
        return Vertex(vid, "surface", Fraction(y), Fraction(1), 0)

    vertices = [extremum("lo", 0)]
    vertices += [Vertex("p%d" % i, "point", Fraction(y))
                 for i, y in enumerate(sorted(levels))]
    vertices.append(extremum("hi", 7))
    room = {v.id: (2 if v.kind == "point" else 0)
            for v in (vertices[0], vertices[-1])}
    up, down = set(), set()
    edges = []
    pairs = draw(st.lists(st.tuples(st.integers(0, len(vertices) - 1),
                                    st.integers(0, len(vertices) - 1)),
                          max_size=12))
    for i, j in pairs:
        low, high = vertices[min(i, j)], vertices[max(i, j)]
        if low.moment == high.moment or any(
                {e.a, e.b} == {low.id, high.id} for e in edges):
            continue
        if low.id in up or high.id in down or 0 in (
                room.get(low.id), room.get(high.id)):
            continue
        for vid, ends in ((low.id, up), (high.id, down)):
            if vid in room:
                room[vid] -= 1
            else:
                ends.add(vid)
        edges.append(Edge(low.id, high.id, 2))
    g = DecoratedGraph(vertices, edges)
    g._problems = ()  # validate_graph's cached result: no problems
    return g


@settings(max_examples=600, derandomize=True, deadline=None)
@given(g=structures())
def test_matches_reference_on_random_structures(g):
    check_against_reference(g)
