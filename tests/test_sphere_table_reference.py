"""The sphere table against the scans it replaced.

``graph_core._sphere_table`` keeps, once per graph, every sphere of the
strands with its self-intersection and rise; ``_sphere_links`` adds the
spheres at each vertex, the strands, and the tops and the bottoms, once
per graph too.  The references below
recompute each of them from the public interface or keep the form the
table replaced: S.S from ``isotropy_weights``, the area from
``Vertex.moment``, the tops and bottoms by a scan of the edges, the
strands by the chain walk ``_chains`` made over the free spheres
``_strand_frees`` listed, and ``compare``'s strand test by the O(V) scan
``_strand_of`` made.  They run on the depth-3 corpus with its flips and
on the 25-prime chain (``_scale`` > 10^36) with its flip.
"""

from fractions import Fraction

import pytest

from hamgraphs import (compare, extend_graph, flip, graph_from_json,
                       isotropy_weights, require_valid)
from hamgraphs.blowup_calculus import BlowdownSite, _ordered_sites, _rewrite
from hamgraphs.graph_core import (GraphError, Sphere, _area, _problems,
                                  _sphere_links, _sphere_table)
from test_level_index_reference import prime_chain


def _low_high(g, a, b):
    return (a, b) if g.moment(a) < g.moment(b) else (b, a)


def reference_chains(g, frees):
    """The chains of Spheres from the minimum to the maximum, made of the
    recorded edges and the free (low id, high id) pairs, each walked up
    from a sphere at the minimum and sorted by the levels of its interior
    points, then by its weights."""
    lo, hi = g.min_vertex().id, g.max_vertex().id
    spheres = [Sphere(*_low_high(g, e.a, e.b), e.k) for e in g.edges]
    spheres += [Sphere(low, high, 1) for low, high in frees]
    up_of, starts = {}, []
    for s in spheres:
        if s.south == lo:
            starts.append(s)
        else:
            up_of[s.south] = s
    chains = []
    for s in starts:
        chain = [s]
        while chain[-1].north != hi:
            chain.append(up_of[chain[-1].north])
        chains.append(tuple(chain))
    chains.sort(key=lambda c: ([(g.moment(s.north), s.north)
                                for s in c[:-1]], [s.k for s in c]))
    return chains


def reference_frees(g):
    """A free sphere from the minimum to each interior point with no down
    edge, and one from each interior point with no up edge to the
    maximum."""
    lo, hi = g.min_vertex().id, g.max_vertex().id
    ids = g.interior_ids()
    return ([(lo, v) for v in ids if not g.down_edges(v)]
            + [(v, hi) for v in ids if not g.up_edges(v)])


def reference_strands(g):
    return reference_chains(g, reference_frees(g))


def reference_strand_of(g, vid):
    """The interior ids on vid's strand, bottom to top, or None when vid
    is an extremum: a scan of every strand."""
    for strand in reference_strands(g):
        ids = [s.north for s in strand[:-1]]
        if vid in ids:
            return ids
    return None


def reference_compare(g, vid, wid):
    if vid == wid:
        return "equal"
    strand = reference_strand_of(g, vid)
    if g.moment(vid) == g.moment(wid) or (
            strand is not None and not g.is_extremal(wid)
            and wid not in strand):
        return "incomparable"
    return "less" if g.moment(vid) < g.moment(wid) else "greater"


def reference_square(g, low, high, k):
    """(m_low - m_high)/k from the public weights: m_low is the weight at
    low other than +k and m_high the one at high other than -k.  An
    extremum without such a weight (the free strand sphere at an
    isolated extremum with weights n, n' >= 2) takes the weight sum less
    k, or plus k at the high end, as the formula does."""
    def other(weights, w):
        rest = list(weights)
        if w in rest:
            rest.remove(w)
            return rest[0]
        return sum(weights) - w
    m_low = other(isotropy_weights(g, low), k)
    m_high = other(isotropy_weights(g, high), -k)
    return Fraction(m_low - m_high, k)


def brute_tops_bottoms(g):
    """The interior points with no edge to a higher and with no edge to a
    lower vertex, in level order."""
    tops, bottoms = [], []
    for v in g.interior_ids():
        others = [g.moment(e.b if e.a == v else e.a) for e in g.edges
                  if v in (e.a, e.b)]
        if not any(m > g.moment(v) for m in others):
            tops.append(v)
        if not any(m < g.moment(v) for m in others):
            bottoms.append(v)
    return tuple(tops), tuple(bottoms)


@pytest.fixture(scope="module")
def graphs(enumerated):
    """The depth-3 corpus and the 25-prime chain, with their flips."""
    out = [rec.graph for rec in enumerated] + [prime_chain()]
    return out + [flip(g) for g in out]


def test_rows_match_the_weights_and_the_moments(graphs):
    assert max(g._scale for g in graphs) > 10 ** 36
    for g in graphs:
        table = _sphere_table(require_valid(g))
        spheres = [s for c in reference_strands(g) for s in c]
        assert sorted(r[:3] for r in table.rows) == sorted(spheres)
        for low, high, k, square, rise in table.rows:
            expected = reference_square(g, low, high, k)
            assert square == expected
            assert type(square) is int
            area = (g.moment(high) - g.moment(low)) / k
            assert _area(g, low, high, k) == area
            assert Fraction(rise, k * g._scale) == area


def test_every_interior_point_has_one_down_and_one_up_sphere(graphs):
    for g in graphs:
        rows, at = _sphere_table(g).rows, _sphere_links(g).at
        lo, hi = g.min_vertex().id, g.max_vertex().id
        for v in g.interior_ids():
            down, up = at[v]
            assert [r for r in rows if r[1] == v] == [down]
            assert [r for r in rows if r[0] == v] == [up]
        assert sorted(at[lo]) == sorted(r for r in rows if r[0] == lo)
        assert sorted(at[hi]) == sorted(r for r in rows if r[1] == hi)


def test_table_is_shared_read_only(graphs):
    # readers get the cached rows, strands and spheres at a vertex as they
    # are, so none of them is a list that a reader could change in place
    for g in graphs:
        t = _sphere_links(g)
        parts = [t.rows, t.tops, t.bottoms, *t.rows, *t.at.values(),
                 *t.strands.values()]
        assert all(type(x) is tuple for x in parts)


def test_tops_and_bottoms_match_a_scan_of_the_edges(graphs):
    for g in graphs:
        table = _sphere_links(g)
        assert (table.tops, table.bottoms) == brute_tops_bottoms(g)


def test_strands_match_the_chain_walk(graphs):
    for g in graphs:
        links = _sphere_links(g)
        assert [tuple(r[:3] for r in c) for c in links.strands.values()] \
            == reference_strands(g)
        for v in g.interior_ids():
            assert v in [r[1] for r in links.strands[links.strand[v]]]


def test_compare_matches_the_strand_scan(graphs):
    for g in graphs[::7] + [prime_chain()]:
        ids = list(g.vertices)
        for v in ids:
            for w in ids:
                assert compare(g, v, w) == reference_compare(g, v, w)


def test_extension_chains_match_the_chain_walk(graphs):
    extended = 0
    for g in graphs:
        try:
            ext = extend_graph(g)
        except GraphError:
            continue
        extended += any(low != g.min_vertex().id and high != g.max_vertex().id
                        for low, high in ext.free_edges)
        assert ext.chains == reference_chains(g, ext.free_edges)
    assert extended   # some extension joins a top to a bottom


# A blow-up of cp2(1, 2): its minimum keeps the weights {2, 3}, and the
# point w4, with no down edge, has the up weight 5 after four interior
# blow-ups, so the free strand sphere from the minimum to w4 has
# S.S = (2 + 3 - 1) - 5 = -1.
FREE_WEIGHT_GRAPH = {
    "vertices": [
        {"id": "min", "kind": "point", "moment": "0"},
        {"id": "a", "kind": "point", "moment": "6/5"},
        {"id": "b", "kind": "point", "moment": "21/5"},
        {"id": "c", "kind": "point", "moment": "9"},
        {"id": "d", "kind": "point", "moment": "47/5"},
        {"id": "w4", "kind": "point", "moment": "38467/4000"},
        {"id": "w3", "kind": "point", "moment": "19241/2000"},
        {"id": "w2", "kind": "point", "moment": "19247/2000"},
        {"id": "w1", "kind": "point", "moment": "2407/250"},
        {"id": "w0", "kind": "point", "moment": "4817/500"},
        {"id": "s", "kind": "surface", "moment": "241/25", "area": "6/125",
         "genus": 0}],
    "edges": [
        {"a": "w1", "b": "w0", "k": 2}, {"a": "w2", "b": "w1", "k": 3},
        {"a": "w3", "b": "w2", "k": 4}, {"a": "w4", "b": "w3", "k": 5},
        {"a": "d", "b": "min", "k": 2}, {"a": "a", "b": "min", "k": 3},
        {"a": "a", "b": "b", "k": 5}, {"a": "b", "b": "c", "k": 2}]}


def test_free_strand_sphere_without_a_free_weight_is_no_site():
    g = require_valid(graph_from_json(FREE_WEIGHT_GRAPH))
    assert isotropy_weights(g, "min") == (2, 3)
    row = next(r for r in _sphere_table(g).rows if r[:3] == ("min", "w4", 1))
    assert row[3] == -1
    sites = _ordered_sites(g)
    assert sites and all(s.vertices != ("min", "w4") for s in sites)
    # collapsing it would merge min and w4 into a minimum with three edges
    fake = BlowdownSite("C", ("min", "w4"), _area(g, "min", "w4", 1), "min")
    assert any("isolated extremum with more than two edges" in p
               for p in _problems(_rewrite(g, fake)))
