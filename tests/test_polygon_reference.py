"""References for the polygons that are Delzant by construction.

``graph_to_polygon`` no longer validates its output or checks that it
closes at the top, ``classify_isolated`` takes the normal form of its
polygon without validating it again, ``polygon_chop`` does not validate
the chopped polygon, and ``primitive`` works on numerators and
denominators.  The tests below run the full Delzant validation on every
polygon of an enumerated corpus, of a grid of 4-point graphs chosen from
the graph data alone and of random chops, recompute the three closure
conditions from the chains and normals, compare the normal form with the
version that built a polygon for each reflection, shear and translation,
and compare ``primitive`` with the ``Fraction`` formula it replaced.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamgraphs import (DecoratedGraph, Edge, PolygonError,
                       Vertex, affine_normal_form, classify_isolated,
                       density, enumerate_graphs, extend_graph,
                       extremal_self_intersections, graph_to_polygon,
                       is_toric_extendable, minimal_graph, polygon_chop,
                       polygon_pushforward, validate_delzant, validate_graph)
from hamgraphs.chain_arith import _normals
from hamgraphs.toric_geometry import (DelzantPolygon, _seed_pair,
                                      lattice_length, outward_normal,
                                      primitive)

from conftest import P, reference_polygons


def reference_seeds():
    return [("cp2(1,1)", minimal_graph("cp2", 1, 1)),
            ("cp2(1,2)", minimal_graph("cp2", 1, 2)),
            ("cp2(1,3)", minimal_graph("cp2", 1, 3)),
            ("hirzebruch", minimal_graph("hirzebruch", "left", 1, 1, 2)),
            ("cp2-surface", minimal_graph("cp2-surface", 0, 3)),
            ("ruled(0,0)", minimal_graph("ruled", 0, 0, 3, 2)),
            ("ruled(0,1)", minimal_graph("ruled", 0, 1, 3, 2))]


@pytest.fixture(scope="module")
def toric_corpus():
    """Every genus-0, toric-extendable graph of the depth-3 closure."""
    return [rec.graph for rec in enumerate_graphs(reference_seeds(), 3)
            if all(s.genus == 0 for s in rec.graph.surfaces())
            and is_toric_extendable(rec.graph)]


def reference_normal_form(P):
    """affine_normal_form as it was: a DelzantPolygon for each reflection,
    shear and translation."""
    candidates = []
    for Q in (P, DelzantPolygon([(-x, y) for x, y in reversed(P.vertices)])):
        verts = Q.vertices
        n = len(verts)
        pivot = min(range(n), key=lambda i: (verts[i][1], verts[i][0]))
        edge = None
        for j in range(n):
            i = (pivot + j) % n
            if outward_normal(verts[i], verts[(i + 1) % n])[0] != 0:
                edge = i
                break
        k, b = outward_normal(verts[edge], verts[(edge + 1) % n])
        m = (b - b % abs(k)) // k
        R = DelzantPolygon([(x + m * y, y) for x, y in verts])
        x0 = min(x for x, _ in R.vertices)
        R = DelzantPolygon([(x + -x0, y) for x, y in R.vertices])
        start = min(range(n), key=lambda i: (R.vertices[i][1],
                                             R.vertices[i][0]))
        candidates.append(R.vertices[start:] + R.vertices[:start])
    return DelzantPolygon(min(candidates))


def reference_primitive(dx, dy):
    """primitive as it was, in Fraction arithmetic."""
    dx, dy = Fraction(dx), Fraction(dy)
    if dx == dy == 0:
        raise ValueError("zero vector")
    denom = dx.denominator * dy.denominator // gcd(dx.denominator,
                                                   dy.denominator)
    ix, iy = int(dx * denom), int(dy * denom)
    g = gcd(abs(ix), abs(iy))
    return ix // g, iy // g


def closure_conditions(g):
    """The closure checks graph_to_polygon made, recomputed from the
    chains and normals: the top gap equals a_max at a surface maximum; at
    an isolated maximum the chains meet at one point and the top corner
    k_r b_l + b_r k_l is 1."""
    lo, hi = g.min_vertex(), g.max_vertex()
    chains = list(extend_graph(g).chains)
    while len(chains) < 2:
        chains.append(((lo.id, hi.id, 1),))
    right, left = chains
    ks_r = [k for _, _, k in right]
    ks_l = [k for _, _, k in left]
    a_min = lo.area if lo.kind == "surface" else Fraction(0)
    a_max = hi.area if hi.kind == "surface" else Fraction(0)
    if lo.kind == "surface":
        b1, b1p = 0, int(extremal_self_intersections(g).e_min)
    else:
        b1, b1p = _seed_pair(ks_r[0], ks_l[0],
                             ks_r[1] if len(ks_r) > 1 else None)
    bs_r, bs_l = _normals(ks_r, b1), _normals(ks_l, b1p)

    def top_x(chain, bs, x0, sign):
        return x0 + sum(sign * Fraction(b, k) * (g.moment(hi_) - g.moment(lo_))
                        for (lo_, hi_, k), b in zip(chain, bs))

    x_r = top_x(right, bs_r, Fraction(0), -1)
    x_l = top_x(left, bs_l, -a_min, +1)
    if hi.kind == "surface":
        return {"top gap": x_r - x_l == a_max}
    return {"chains meet": x_r == x_l,
            "top corner": ks_r[-1] * bs_l[-1] + bs_r[-1] * ks_l[-1] == 1}


def assert_closes(g, Q):
    """Q = graph_to_polygon(g) meets the old closure checks, and its width
    is the density of g."""
    conditions = closure_conditions(g)
    assert all(conditions.values()), (g, conditions)
    assert polygon_pushforward(Q) == density(g), g
    return g.max_vertex().kind


def test_corpus_polygons_are_delzant(toric_corpus):
    isolated = 0
    tops = set()
    for g in toric_corpus:
        Q = graph_to_polygon(g)
        assert validate_delzant(Q) == [], g
        tops.add(assert_closes(g, Q))
        if all(v.kind == "point" for v in g.vertices.values()):
            assert classify_isolated(g) == affine_normal_form(Q), g
            isolated += 1
    assert len(toric_corpus) > 300 and isolated > 200
    assert tops == {"point", "surface"}


def reflected(Q):
    """Q under (x, y) -> (-x, y), read in reverse to stay counterclockwise."""
    return DelzantPolygon([(-x, y) for x, y in reversed(Q.vertices)])


# large denominators of different primes and prime powers
CHOP_DENOMINATORS = (9973, 2 ** 16, 3 ** 11, 1000003, 7 ** 6 * 11)


def chopped(Q):
    """Q with five corners cut in turn, each at a size over one of
    CHOP_DENOMINATORS times the room left at that corner."""
    for j, d in enumerate(CHOP_DENOMINATORS):
        verts = Q.vertices
        n = len(verts)
        i = (2 * j) % n
        fit = min(lattice_length(verts[i - 1], verts[i]),
                  lattice_length(verts[i], verts[(i + 1) % n]))
        Q = polygon_chop(Q, i, fit * Fraction(j + 1, d))
    return Q


def translated(Q, dx, dy):
    return DelzantPolygon([(x + dx, y + dy) for x, y in Q.vertices])


def test_normal_form_matches_reference(toric_corpus):
    polygons = [graph_to_polygon(g) for g in toric_corpus]
    polygons += reference_polygons()
    polygons += [chopped(Q) for Q in polygons[::7]]
    # heights over denominators that no abscissa has, and the reverse
    polygons += [translated(Q, Fraction(3, 2 ** 20), Fraction(-7, 3 ** 13))
                 for Q in polygons[::5]]
    polygons += [translated(Q, Fraction(-5, 11 ** 5), Fraction(1, 1000003))
                 for Q in polygons[::9]]
    polygons += [reflected(Q) for Q in polygons]
    big = 0
    for Q in polygons:
        assert affine_normal_form(Q) == reference_normal_form(Q), Q
        big += max(c.denominator for p in Q.vertices for c in p) > 10 ** 6
    assert big > 50


@pytest.mark.parametrize("Q", [
    P((0, 0), (2, 0), (0, 1)),           # determinant 2 at a corner
    P((0, 0), (0, 1), (1, 0)),           # clockwise
    P((0, 0), (1, 0), (2, 0), (0, 2)),   # a straight corner
])
def test_public_normal_form_validates(Q):
    with pytest.raises(PolygonError):
        affine_normal_form(Q)


RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=24)
COORDS = (RATIONALS | RATIONALS.map(str) | st.integers(-40, 40)
          | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(dx=COORDS, dy=COORDS)
@example(dx=0, dy=Fraction(-3, 4))
@example(dx=Fraction(-5, 6), dy=0)
@example(dx="-7/9", dy=0.25)
def test_primitive_matches_fraction_formula(dx, dy):
    if Fraction(dx) == Fraction(dy) == 0:
        with pytest.raises(ValueError, match="zero vector"):
            primitive(dx, dy)
        return
    assert primitive(dx, dy) == reference_primitive(dx, dy)


@pytest.mark.parametrize("dx,dy", [(0, 0), (Fraction(0), "0"),
                                   (0.0, Fraction(0, 5)), ("-0", -0.0)])
def test_primitive_rejects_zero(dx, dy):
    with pytest.raises(ValueError, match="zero vector"):
        primitive(dx, dy)


def grid_graphs():
    """Valid 4-point graphs not built by blow-ups: the minimum at 0, three
    more levels in {1/2, ..., 7/2}, and each pair of points without an
    edge or joined by an edge of weight 2 or 3."""
    names = ["mn", "p", "q", "mx"]
    pairs = list(combinations(names, 2))
    for levels in combinations([Fraction(i, 2) for i in range(1, 8)], 3):
        vertices = [Vertex(n, "point", y)
                    for n, y in zip(names, (Fraction(0),) + levels)]
        for ks in product((0, 2, 3), repeat=len(pairs)):
            g = DecoratedGraph(vertices, [Edge(a, b, k) for (a, b), k
                                          in zip(pairs, ks) if k])
            if not validate_graph(g):
                yield g


def test_grid_polygons_are_delzant_or_refused():
    # every valid grid graph has a polygon: the graphs that come from no
    # space, which graph_to_polygon refused, now fail validation on a
    # sphere with a non-integer self-intersection
    built = 0
    for g in grid_graphs():
        Q = graph_to_polygon(g)
        assert validate_delzant(Q) == [], g
        assert_closes(g, Q)
        built += 1
    assert built > 100


CHOP_POLYGONS = reference_polygons()


@st.composite
def chops(draw):
    """A reference polygon, one of its vertices and a chop size that fits
    inside both adjacent edges."""
    Q = draw(st.sampled_from(CHOP_POLYGONS))
    verts = Q.vertices
    n = len(verts)
    i = draw(st.integers(0, n - 1))
    fit = min(lattice_length(verts[i - 1], verts[i]),
              lattice_length(verts[i], verts[(i + 1) % n]))
    t = fit * draw(st.fractions(0, 1, max_denominator=60).filter(
        lambda f: 0 < f < 1))
    return Q, i, t


@settings(max_examples=400, derandomize=True, deadline=None)
@given(chops())
def test_random_chops_are_delzant(chop):
    Q, i, t = chop
    assert validate_delzant(polygon_chop(Q, i, t)) == [], (Q, i, t)
