"""Shared fixtures: reference polygons, reference graphs, and the
enumeration corpus used across the suite."""

from fractions import Fraction

import pytest

from hamgraphs import (DecoratedGraph, Edge, Vertex, enumerate_graphs,
                       isotropy_weights, minimal_graph, polygon_chop)
from hamgraphs.toric_geometry import DelzantPolygon


def P(*pts):
    return DelzantPolygon([(Fraction(x), Fraction(y)) for x, y in pts])


# Five polygons over the same "tent" width function (unit triangle-ish
# family at heights 0..4); the first three share that width function,
# the first two even share the graph.
TENT_POLYGONS = [
    P((0, 0), (1, 1), (1, 4), (0, 3)),
    P((0, 1), (1, 0), (1, 4), (0, 3)),
    P((0, 0), (1, 1), (2, 3), (2, 4), (1, 3), (0, 1)),
    P((2, 0), (2, 4), (0, 4), (0, 2)),
    P((0, 0), (2, 2), (2, 4)),
]

# Three polygons of the S2 x S2 family: same graph, pairwise affine
# equivalent, drawn in different frames.
S2S2_POLYGONS = [
    P((0, 6), (0, 4), (2, 0), (2, 2)),
    P((0, 2), (0, 0), (2, 4), (2, 6)),
    P((4, 6), (2, 4), (0, 0), (2, 2)),
]

# A hexagon with all six corners at distinct generic heights.
HEXAGON_X = P((0, 0), (1, 0), (2, 1), (9, 15), (1, 3), (0, 1))

# A pentagon with a bottom edge and its two corner chops of size 4.
PENTAGON = P((0, 0), (12, 0), (12, 10), (4, 10), (0, 6))
PENTAGON_CHOPS = [
    P((4, 0), (12, 0), (12, 10), (4, 10), (0, 6), (0, 4)),
    P((0, 0), (8, 0), (12, 4), (12, 10), (4, 10), (0, 6)),
]

# Two inequivalent ruled polygons (a square and a sheared trapezoid)
# whose corner chops coincide up to translation.
CHOPPED_SQUARE = P((0, 0), (6, 0), (6, 5), (2, 5), (0, 3))
SQUARE_6x5 = P((0, 0), (6, 0), (6, 5), (0, 5))
SHEARED = P((0, 0), (9, 0), (9, 5), (5, 5))
CHOPPED_SHEARED = P((3, 0), (9, 0), (9, 5), (5, 5), (3, 3))


def triangle(r):
    return P((0, 0), (r, 0), (0, r))


def trapezoid(r, n, s):
    return P((0, 0), (r, 0), (Fraction(r) + n * Fraction(s), s), (0, s))


def reference_polygons():
    """The named reference polygons plus generated triangles, trapezoids,
    squares, and chops; at least 50 in total."""
    polys = list(TENT_POLYGONS) + list(S2S2_POLYGONS) + [HEXAGON_X]
    polys += [PENTAGON] + PENTAGON_CHOPS
    polys += [CHOPPED_SQUARE, SQUARE_6x5, SHEARED, CHOPPED_SHEARED]
    polys += [trapezoid(1, 1, 1)]
    for r in (1, 2, 3, 4, 5, Fraction(7, 2)):
        polys.append(triangle(r))
    for n in (0, 1, 2, 3):
        for r, s in ((1, 1), (2, 1), (3, 2)):
            polys.append(trapezoid(r, n, s))
    for a, b in ((1, 1), (2, 3), (5, 2)):
        polys.append(P((0, 0), (a, 0), (a, b), (0, b)))
    chopped = []
    for Q in polys[-15:]:
        try:
            chopped.append(polygon_chop(Q, 0, Fraction(1, 3)))
        except Exception:
            pass
    return polys + chopped


def _interior_products(g):
    """(level, m_p n_p) for each interior fixed point."""
    out = []
    for vid in g.interior_ids():
        w1, w2 = isotropy_weights(g, vid)
        out.append((g.moment(vid), (-w1) * w2))
    return out


def tent_graph():
    F = Fraction
    return DecoratedGraph([
        Vertex("lo", "point", F(0)), Vertex("a", "point", F(1)),
        Vertex("b", "point", F(3)), Vertex("hi", "point", F(4))])


def s2s2_graph():
    F = Fraction
    return DecoratedGraph(
        [Vertex("lo", "point", F(-3)), Vertex("a", "point", F(-1)),
         Vertex("b", "point", F(1)), Vertex("hi", "point", F(3))],
        [Edge("lo", "b", 2), Edge("a", "hi", 2)])


def chopped_square_graph():
    F = Fraction
    return DecoratedGraph([
        Vertex("lo", "surface", F(0), area=F(6), genus=0),
        Vertex("p", "point", F(3)),
        Vertex("hi", "surface", F(5), area=F(4), genus=0)])


CP2_SEEDS = [(m, n) for m in range(1, 6) for n in range(1, 6)
             if m + n <= 6 and Fraction(m, n).numerator == m]
RULED_NS = [0, 1, 2, 3]


def corpus_seeds():
    seeds = [("cp2(%d,%d)" % (m, n), minimal_graph("cp2", m, n))
             for m, n in CP2_SEEDS]
    seeds += [("ruled(%d)" % n, minimal_graph("ruled", 0, n, 1, 1, 0))
              for n in RULED_NS]
    return seeds


@pytest.fixture(scope="session")
def corpus_polygons():
    return reference_polygons()


@pytest.fixture(scope="session")
def enumerated():
    """The enumeration corpus: all seeds, up to three blow-ups each."""
    return enumerate_graphs(corpus_seeds(), 3)


@pytest.fixture(scope="session")
def enumerated_small():
    """A lighter corpus (depth 2) for the more expensive sweeps."""
    return enumerate_graphs(corpus_seeds(), 2)
