"""The fan blow-down calculus, kept as a reference for recognising minimal
models with isolated fixed points.

``match_minimal_family`` decides these graphs from the graph itself: three
fixed points are the projective plane, four are a Hirzebruch surface
exactly when no blow-down is possible.  The functions below decide the
same question on the normal fan of the graph's Delzant polygon, as the
library once did, and the tests check that both answers agree.
"""

import pytest

from hamgraphs import (PolygonError, canonical_form, classify_isolated,
                       match_minimal_family, polygon_to_fan, validate_fan)
from hamgraphs.blowup_calculus import _ordered_sites, _rewrite
from hamgraphs.toric_geometry import det2


def require_valid_fan(F):
    problems = validate_fan(F)
    if problems:
        raise PolygonError("; ".join(problems))
    return F


def fan_blowdown_sites(F):
    require_valid_fan(F)
    n = len(F)
    return [i for i in range(n)
            if (F[(i - 1) % n][0] + F[(i + 1) % n][0],
                F[(i - 1) % n][1] + F[(i + 1) % n][1]) == tuple(F[i])]


def fan_blowdown(F, i):
    if i not in fan_blowdown_sites(F):
        raise PolygonError("ray %d is not a blow-down site" % i)
    G = list(F[:i]) + list(F[i + 1:])
    return require_valid_fan(G)


def minimal_fan_type(F):
    """"cp2", "hirzebruch:n", or "not-minimal"."""
    require_valid_fan(F)
    if fan_blowdown_sites(F):
        return "not-minimal"
    if len(F) == 3:
        return "cp2"
    if len(F) == 4:
        for i in range(2):
            u, w = F[i], F[i + 2]
            if (u[0] + w[0], u[1] + w[1]) == (0, 0):
                a, b = F[(i + 1) % 4], F[(i + 3) % 4]
                s = (a[0] + b[0], a[1] + b[1])
                # s is an integer multiple of u since det(u, s) = 0
                if det2(u, s) != 0:
                    continue
                c = s[0] * u[0] + s[1] * u[1]
                return "hirzebruch:%d" % abs(c)
    return "not-minimal"


def fan_family(g):
    """The minimal family of an isolated-fixed-point graph, read off the
    normal fan of its polygon."""
    kind = minimal_fan_type(polygon_to_fan(classify_isolated(g)))
    if kind == "cp2":
        return "cp2"
    if kind.startswith("hirzebruch"):
        return "hirzebruch"
    return None


def blowdown_closure(graphs):
    """The graphs together with everything their blow-downs reach, one
    graph per exact isomorphism class."""
    seen = {canonical_form(g).digest for g in graphs}
    out = list(graphs)
    todo = list(graphs)
    while todo:
        g = todo.pop()
        for site in _ordered_sites(g):
            h = _rewrite(g, site)
            digest = canonical_form(h).digest
            if digest not in seen:
                seen.add(digest)
                out.append(h)
                todo.append(h)
    return out


def test_graph_rule_matches_fan_on_closure(enumerated_small):
    closure = blowdown_closure([rec.graph for rec in enumerated_small])
    counts = {}
    for g in closure:
        if g.surfaces() or len(g.vertices) > 4:
            continue
        family = match_minimal_family(g)
        assert family == fan_family(g), g
        counts[family] = counts.get(family, 0) + 1
    assert len(closure) > len(enumerated_small)
    assert set(counts) == {"cp2", "hirzebruch", None}
    assert sum(counts.values()) > 200


def test_fans():
    assert minimal_fan_type([(0, 1), (-1, -1), (1, 0)]) == "cp2"
    fan = [(1, 0), (1, 1), (0, 1), (-1, -1)]
    assert validate_fan(fan) == []
    assert fan_blowdown_sites(fan) == [1]
    down = fan_blowdown(fan, 1)
    assert minimal_fan_type(down) == "cp2"
    for n in (0, 2, 3):
        fan = [(-1, n), (0, -1), (1, 0), (0, 1)]
        assert minimal_fan_type(fan) == "hirzebruch:%d" % n
    # n = 1 is the blown-up projective plane, so it is not minimal
    assert minimal_fan_type([(-1, 1), (0, -1), (1, 0), (0, 1)]) == \
        "not-minimal"
    with pytest.raises(PolygonError):
        fan_blowdown([(0, 1), (-1, -1), (1, 0)], 0)


def test_every_big_fan_has_a_blowdown_site(corpus_polygons):
    for Q in corpus_polygons:
        fan = polygon_to_fan(Q)
        if len(fan) > 4:
            assert fan_blowdown_sites(fan)
