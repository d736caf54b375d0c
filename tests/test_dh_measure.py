from fractions import Fraction

import pytest

from hamgraphs import (GraphError, PiecewiseLinearDensity,
                       check_concave_nonneg, density,
                       extremal_self_intersections, flip, isotropy_weights,
                       minimal_graph, polygon_pushforward, polygon_to_graph,
                       total_mass)
from hamgraphs.dh_measure import evaluate
from conftest import (S2S2_POLYGONS, TENT_POLYGONS, _interior_products,
                      s2s2_graph, tent_graph)
from test_canonical_reference import twin_chain

F = Fraction


def test_extremal_s2s2():
    ext = extremal_self_intersections(s2s2_graph())
    assert (ext.e_min, ext.e_max) == (F(-1, 2), F(-1, 2))


def test_extremal_cp2():
    ext = extremal_self_intersections(minimal_graph("cp2", 1, 2))
    assert (ext.e_min, ext.e_max) == (F(-1, 6), F(-1, 3))


def test_extremal_trivial_ruled():
    ext = extremal_self_intersections(minimal_graph("ruled", 0, 0, 1, 1, 0))
    assert (ext.e_min, ext.e_max) == (0, 0)


def test_tent_density():
    rho = density(tent_graph())
    assert rho.breakpoints == (0, 1, 3, 4)
    assert rho.values == (0, 1, 1, 0)
    assert rho.value_inside(F(1, 2)) == F(1, 2)
    assert rho.value_inside(F(7, 2)) == F(1, 2)


def test_s2s2_density():
    rho = density(s2s2_graph())
    assert rho.breakpoints == (-3, -1, 1, 3)
    assert rho.values == (0, 1, 1, 0)


def test_trivial_ruled_density_constant():
    rho = density(minimal_graph("ruled", 0, 0, 3, 1, 0))
    assert rho.breakpoints == (0, 1)
    assert rho.values == (3, 3)


def test_total_mass():
    assert total_mass(density(tent_graph())) == 3
    assert total_mass(density(s2s2_graph())) == 4
    assert total_mass(PiecewiseLinearDensity((0, 1), (0, 0))) == 0


def test_evaluate_closed_convention():
    g = minimal_graph("ruled", 0, 0, 3, 1, 0)
    assert evaluate(g, F(0)) == 3
    assert evaluate(g, F(1)) == 0       # the top jump is included at y_max
    assert evaluate(g, F(-1)) == 0
    assert evaluate(tent_graph(), F(4)) == 0
    assert evaluate(tent_graph(), F(2)) == 1


def reference_evaluate(g, y):
    """The literal H/T formula of the module docstring, term by term."""
    ext = extremal_self_intersections(g)
    lo, hi = g.min_vertex(), g.max_vertex()
    a_min = lo.area if lo.kind == "surface" else F(0)
    a_max = hi.area if hi.kind == "surface" else F(0)

    def H(x):
        return 1 if x >= 0 else 0

    def T(x):
        return x if x >= 0 else F(0)

    val = a_min * H(y - lo.moment) - ext.e_min * T(y - lo.moment)
    for yp, mn in _interior_products(g):
        val -= F(T(y - yp), mn)
    val -= ext.e_max * T(y - hi.moment)
    val -= a_max * H(y - hi.moment)
    return val


def test_evaluate_matches_literal_formula(enumerated_small):
    points = 0
    for rec in enumerated_small:
        g = rec.graph
        bps = density(g).breakpoints
        ys = set(bps) | {(a + b) / 2 for a, b in zip(bps, bps[1:])}
        ys |= {bps[0] - 1, bps[-1] + F(1, 7), bps[-1] + 1}
        for y in ys:
            assert evaluate(g, y) == reference_evaluate(g, y), (rec, y)
        points += len(ys)
    assert points > 2000


def reference_density(g):
    """density as it was: every value summed afresh over all interior
    points, O(V P) Fraction operations."""
    ext = extremal_self_intersections(g)
    lo = g.min_vertex()
    a_min = lo.area if lo.kind == "surface" else F(0)
    products = _interior_products(g)
    bps = sorted({v.moment for v in g.vertices.values()})

    def inside(y):
        val = a_min - ext.e_min * (y - lo.moment)
        for yp, mn in products:
            if y > yp:
                val -= F(y - yp, mn)
        return val

    return PiecewiseLinearDensity(bps, [inside(y) for y in bps])


def test_density_sweep_matches_reference(enumerated):
    graphs = [rec.graph for rec in enumerated]
    graphs += [flip(g) for g in graphs]
    graphs += [twin_chain(k) for k in range(1, 9)]
    for g in graphs:
        rho = density(g)
        assert rho == reference_density(g), g
        assert all(isinstance(v, F) for v in rho.values), g
        hi = g.max_vertex()
        assert rho.values[-1] == (hi.area if hi.kind == "surface" else 0), g
    assert len(graphs) > 1000


def test_concavity():
    assert check_concave_nonneg(density(tent_graph()))
    bad = PiecewiseLinearDensity((0, 1, 2), (1, 0, 2))
    assert not check_concave_nonneg(bad)
    neg = PiecewiseLinearDensity((0, 1), (-1, 1))
    assert not check_concave_nonneg(neg)


def test_degenerate_graph_rejected():
    from hamgraphs import DecoratedGraph, Vertex
    g = DecoratedGraph([Vertex("a", "point", F(0)),
                        Vertex("b", "point", F(0))])
    with pytest.raises(GraphError):
        extremal_self_intersections(g)


def test_pushforward_unit_square():
    from conftest import P
    rho = polygon_pushforward(P((0, 0), (1, 0), (1, 1), (0, 1)))
    assert rho.breakpoints == (0, 1)
    assert rho.values == (1, 1)


def test_pushforward_tent_polygons():
    tent = density(tent_graph())
    for Q in TENT_POLYGONS[:3]:
        assert polygon_pushforward(Q) == tent


def test_pushforward_s2s2_polygon():
    rho = polygon_pushforward(S2S2_POLYGONS[0])
    shifted = density(s2s2_graph())
    assert rho.breakpoints == tuple(b + 3 for b in shifted.breakpoints)
    assert rho.values == shifted.values


def test_slope_drops_match_weight_products(enumerated_small):
    for rec in enumerated_small:
        g = rec.graph
        rho = density(g)
        slopes = {}
        for i in range(len(rho.breakpoints) - 1):
            dy = rho.breakpoints[i + 1] - rho.breakpoints[i]
            slopes[rho.breakpoints[i]] = \
                F(rho.values[i + 1] - rho.values[i], dy)
        drop = {}
        for vid in g.interior_ids():
            w1, w2 = isotropy_weights(g, vid)
            y = g.moment(vid)
            drop[y] = drop.get(y, 0) + F(1, (-w1) * w2)
        prev = None
        for y in sorted(slopes):
            if prev is not None:
                assert slopes[prev] - slopes[y] == drop.get(y, 0)
            prev = y


def test_corpus_concave_and_positive_mass(enumerated_small):
    for rec in enumerated_small:
        rho = density(rec.graph)
        assert check_concave_nonneg(rho)
        assert total_mass(rho) > 0
