"""The integer level index against the Fraction arithmetic it replaced.

A ``DecoratedGraph`` whose moments are all ``Fraction`` values keeps its
levels as integers over one denominator: ``_scale`` is the least common
multiple of the moment denominators and ``_y[vid]`` the moment times
``_scale``.  The density sweep, the sides of ``graph_to_polygon``, the
class values and the ``shift`` labels of ``canonical_form`` run on it.
The references below keep the ``Fraction`` forms, on graphs whose levels
have large and distinct denominators: a surface blown up at 1/p for the
first 25 primes p, and the small enumeration corpus shifted by rationals
over large prime powers, with the flips of all of them.
"""

from fractions import Fraction

import pytest

from hamgraphs import (GraphError, blowup, canonical_form, class_values,
                       density, extend_graph, extremal_self_intersections,
                       flip, graph_to_polygon, intersection_matrix,
                       minimal_graph, polygon_pushforward, shift,
                       validate_graph)
from hamgraphs.chain_arith import _normals
from hamgraphs.toric_geometry import _seed_pair
from test_canonical_reference import reference_canonical_form
from test_dh_measure import reference_density
from test_polygon_reference import CHOP_DENOMINATORS

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
          61, 67, 71, 73, 79, 83, 89, 97)


def prime_chain():
    """ruled(0, 0, 100, 10) with its minimum surface blown up at 1/p for
    each prime p in PRIMES, the largest size first."""
    g = minimal_graph("ruled", 0, 0, 100, 10)
    for p in PRIMES:
        g = blowup(g, g.min_vertex().id, Fraction(1, p))
    return g


def fraction_polygon_vertices(g):
    """The vertices of graph_to_polygon(g), with the sides walked in
    Fraction arithmetic as _build_polygon once walked them."""
    lo, hi = g.min_vertex(), g.max_vertex()
    chains = list(extend_graph(g).chains)
    while len(chains) < 2:
        chains.append(((lo.id, hi.id, 1),))
    right, left = chains
    ks_r = [k for _, _, k in right]
    ks_l = [k for _, _, k in left]
    a_min = lo.area if lo.kind == "surface" else Fraction(0)
    if lo.kind == "surface":
        b1, b1p = 0, int(extremal_self_intersections(g).e_min)
    else:
        k2_right = ks_r[1] if len(ks_r) > 1 else None
        b1, b1p = _seed_pair(ks_r[0], ks_l[0], k2_right)
    bs_r = _normals(ks_r, b1)
    bs_l = _normals(ks_l, b1p)

    def side_points(chain, bs, x0, sign):
        pts = [(x0, lo.moment)]
        x = x0
        for (low, high, k), b in zip(chain, bs):
            x = x + sign * Fraction(b, k) * (g.moment(high) - g.moment(low))
            pts.append((x, g.moment(high)))
        return pts

    verts = side_points(right, bs_r, Fraction(0), -1)
    back = list(reversed(side_points(left, bs_l, -a_min, +1)))
    if hi.kind == "point":
        back = back[1:]
    if lo.kind == "point":
        back = back[:-1]
    return verts + back


def fraction_class_values(g):
    """class_values(g) as the Fraction differences of the moments."""
    surfaces = sorted((v for v in g.vertices.values()
                       if v.kind == "surface"), key=lambda v: v.moment)
    lo, hi = surfaces
    vals = {"Bmin": lo.area, "Bmax": hi.area, "F": hi.moment - lo.moment}
    for ci, chain in enumerate(intersection_matrix(g).chains, start=1):
        for i, s in enumerate(chain, start=1):
            vals["E:%d:%d" % (ci, i)] = Fraction(
                g.moment(s.north) - g.moment(s.south), s.k)
    return vals


@pytest.fixture(scope="module")
def indexed_graphs(enumerated_small):
    graphs = [prime_chain()]
    graphs += [shift(rec.graph, Fraction(2 * i + 1,
                                         CHOP_DENOMINATORS[i % 5]))
               for i, rec in enumerate(enumerated_small)]
    return graphs + [flip(g) for g in graphs]


def test_prime_chain_is_valid_and_its_polygon_has_its_density():
    g = prime_chain()
    assert len(g.vertices) == 27
    assert validate_graph(g) == []
    assert polygon_pushforward(graph_to_polygon(g)) == density(g)
    assert g._scale % (2 * 3 * 5 * 7 * 97) == 0


def test_index_matches_fraction_arithmetic(indexed_graphs):
    polygons = two_surface = 0
    for g in indexed_graphs:
        for vid, v in g.vertices.items():
            assert Fraction(g._y[vid], g._scale) == v.moment
        assert density(g) == reference_density(g), g
        form = canonical_form(g, "shift")
        assert (form.digest, form.text) == \
            reference_canonical_form(g, "shift"), g
        try:
            P = graph_to_polygon(g)
        except GraphError:
            pass
        else:
            assert list(P.vertices) == fraction_polygon_vertices(g), g
            polygons += 1
        if [v.kind for v in (g.min_vertex(), g.max_vertex())] == \
                ["surface", "surface"]:
            assert class_values(g) == fraction_class_values(g), g
            two_surface += 1
    assert max(g._scale for g in indexed_graphs) > 10 ** 30
    assert polygons > 400 and two_surface > 60
