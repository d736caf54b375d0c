"""The blow-up bound against the pairwise search it replaced.

The reference below decides every vertex pair of a symbolic blow-up with
its own monotone-path search, and builds the constraint list from every
order pair, equal slopes included, and the area labels.  It reads each
label of the blown-up graph as an affine pair c0 + c1 lambda off two
instantiations, in Fractions.  The closed-form supremum a SymbolicBlowup
keeps must be the least root of that full list, and must give the same
monotonicity answers as the list, on the small enumeration corpus and on
the valid grid graphs, which no blow-up builds, with their flips.
compare, which reads the strands of a graph, must give the partial order
that the same search gives.
"""

from fractions import Fraction as F

import pytest

from hamgraphs import (DecoratedGraph, Edge, ValidationError, Vertex,
                       blowup_sites, blowup_symbolic, compare, flip,
                       instantiate, monotone_check)
from test_polygon_reference import grid_graphs


def _monotone_path(low, high, level, neighbours):
    """Is there a path from low to high along which the level strictly
    increases?  level(v) gives a vertex's level (any totally ordered
    values) and neighbours(v) the vertices joined to v by a sphere."""
    target = level(high)
    stack = [low]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur == high:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        y = level(cur)
        for w in neighbours(cur):
            if y < level(w) <= target:
                stack.append(w)
    return False


def affine_model(sb):
    """({id: (kind, moment (c0, c1), area (c0, c1) or None, genus)}, edges)
    of the blow-up sb, each label's affine pair c0 + c1 lambda read off
    the graphs instantiated at two sizes."""
    l1, l2 = sb.sup / 3, sb.sup / 2
    h1, h2 = instantiate(sb, l1), instantiate(sb, l2)
    assert h1.edges == h2.edges

    def aff(x1, x2):
        c1 = (x2 - x1) / (l2 - l1)
        return (x1 - c1 * l1, c1)

    model = {}
    for v in h1.vertices.values():
        w = h2.vertex(v.id)
        model[v.id] = (v.kind, aff(v.moment, w.moment),
                       None if v.area is None else aff(v.area, w.area),
                       v.genus)
    return model, h1.edges


def reference_order(model, edges):
    ids = list(model)
    mom = {vid: model[vid][1] for vid in ids}
    lo = min(ids, key=lambda v: (mom[v], v))
    hi = max(ids, key=lambda v: (mom[v], v))
    incident = {vid: [] for vid in ids}
    for e in edges:
        incident[e.a].append(e.b)
        incident[e.b].append(e.a)
    pairs = set()
    for v in ids:
        for w in ids:
            if v >= w or mom[v] == mom[w]:
                continue
            a, b = (v, w) if mom[v] < mom[w] else (w, v)
            if a in (lo, hi) or b in (lo, hi) or _monotone_path(
                    a, b, mom.__getitem__, incident.__getitem__):
                pairs.add((a, b))
    return pairs


def pair_constraints(model, pairs, equal_slopes=True):
    """(c0, c1) for each (lower, upper) pair, with or without the pairs
    whose levels have equal slopes."""
    out = []
    for v, w in sorted(pairs):
        mv, mw = model[v][1], model[w][1]
        if equal_slopes or mv[1] != mw[1]:
            out.append((mw[0] - mv[0], mw[1] - mv[1]))
    return out


def full_constraints(model, pairs):
    """The constraints of every (lower, upper) pair, then the area
    labels."""
    return pair_constraints(model, pairs) + [
        area for _, _, area, _ in model.values() if area is not None]


def least_root(constraints):
    """The least size at which a constraint c0 + c1 lambda with c1 < 0
    reaches 0."""
    return min(-c0 / c1 for c0, c1 in constraints if c1 < 0)


def reference_check(constraints, lam):
    return lam > 0 and all(c0 + c1 * lam > 0 for c0, c1 in constraints)


def test_order_and_bound_match_reference(enumerated_small):
    grid = list(grid_graphs())
    graphs = [rec.graph for rec in enumerated_small]
    graphs += grid + [flip(g) for g in grid]
    sites = 0
    for g in graphs:
        for site in blowup_sites(g):
            sb = blowup_symbolic(g, site)
            model, edges = affine_model(sb)
            full = full_constraints(model, reference_order(model, edges))
            sup = least_root(full)
            assert sb.sup == sup, (g, site)
            roots = {-c0 / c1 for c0, c1 in full if c1 != 0}
            for lam in {sup / 2, sup, 2 * sup} | roots:
                assert monotone_check(sb, lam) == \
                    reference_check(full, lam), (g, site, lam)
            sites += 1
    assert len(grid) > 100 and sites > 1900


def reference_compare(g, v, w):
    """The partial order by a monotone-path search over the recorded
    spheres, the way compare decided it before it read strands."""
    if v == w:
        return "equal"
    if g.moment(v) == g.moment(w):
        return "incomparable"
    low, high = (v, w) if g.moment(v) < g.moment(w) else (w, v)
    incident = {vid: [] for vid in g.vertices}
    for e in g.edges:
        incident[e.a].append(e.b)
        incident[e.b].append(e.a)
    if not (g.is_extremal(v) or g.is_extremal(w) or _monotone_path(
            low, high, g.moment, incident.__getitem__)):
        return "incomparable"
    return "less" if low == v else "greater"


def test_compare_matches_reference(enumerated_small):
    pairs = 0
    for rec in enumerated_small:
        for g in (rec.graph, flip(rec.graph)):
            for v in g.vertices:
                for w in g.vertices:
                    assert compare(g, v, w) == reference_compare(g, v, w), \
                        (rec, v, w)
                    pairs += 1
    assert pairs > 8000


def test_compare_refuses_an_invalid_graph():
    # a has two up edges, so the graph is invalid; the search above still
    # finds a monotone path from a to b
    g = DecoratedGraph(
        [Vertex("lo", "point", F(0)), Vertex("a", "point", F(1)),
         Vertex("b", "point", F(2)), Vertex("c", "point", F(2)),
         Vertex("hi", "point", F(3))],
        [Edge("a", "b", 2), Edge("a", "c", 2)])
    assert reference_compare(g, "a", "b") == "less"
    with pytest.raises(ValidationError, match="a: more than one up edge"):
        compare(g, "a", "b")
