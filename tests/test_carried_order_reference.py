"""The blow-up constraints and bound against the pairwise search they
replaced.

The reference below decides every vertex pair of a symbolic blow-up with
its own monotone-path search, and builds the constraint list from every
order pair, equal slopes included.  The constraints a SymbolicBlowup keeps
must be exactly those of the pairs with different slopes plus the area
labels, and must give the same bound and the same monotonicity answers as
the full list.  compare, which reads the strands of a graph, must give
the partial order that the same search gives.
"""

from fractions import Fraction as F

import pytest

from hamgraphs import (DecoratedGraph, Edge, ValidationError, Vertex,
                       blowup_sites, blowup_symbolic, compare, flip,
                       monotone_check)


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


def reference_order(sb):
    ids = list(sb.vertices)
    mom = {vid: sb.vertices[vid][1] for vid in ids}
    lo = min(ids, key=lambda v: (mom[v], v))
    hi = max(ids, key=lambda v: (mom[v], v))
    incident = {vid: [] for vid in ids}
    for e in sb.edges:
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


def full_constraints(sb, pairs, equal_slopes=True):
    """(c0, c1) for each (lower, upper) pair, with or without the pairs
    whose levels have equal slopes, then the area labels."""
    out = []
    for v, w in sorted(pairs):
        mv, mw = sb.vertices[v][1], sb.vertices[w][1]
        if equal_slopes or mv[1] != mw[1]:
            out.append((mw[0] - mv[0], mw[1] - mv[1]))
    out += [area for _, _, area, _ in sb.vertices.values()
            if area is not None]
    return out


def reference_check(constraints, lam):
    return lam > 0 and all(c0 + c1 * lam > 0 for c0, c1 in constraints)


def test_order_and_bound_match_reference(enumerated_small):
    sites = 0
    for rec in enumerated_small:
        for site in blowup_sites(rec.graph):
            sb = blowup_symbolic(rec.graph, site)
            pairs = reference_order(sb)
            # every constraint once: a list equal up to order
            assert sorted(sb.constraints) == sorted(
                full_constraints(sb, pairs, equal_slopes=False)), (rec, site)
            full = full_constraints(sb, pairs)
            sup = min((-c0 / c1 for c0, c1 in full if c1 < 0), default=None)
            assert sup is not None and sb.sup == sup, (rec, site)
            roots = {-c0 / c1 for c0, c1 in full if c1 != 0}
            for lam in {sup / 2, sup, 2 * sup} | roots:
                assert monotone_check(sb, lam) == \
                    reference_check(full, lam), (rec, site, lam)
            sites += 1
    assert sites > 900


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
