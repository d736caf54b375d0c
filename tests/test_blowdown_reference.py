"""Blow-down site searches against the validating searches they replaced.

The searches below build every candidate rewrite and keep it exactly when
``validate_graph`` accepts the result, as the library once did.  The
library lists every A, B and C site and a D site exactly when the fixed
sphere has genus 0 and self-intersection -1, and ``_rewrite`` builds the
graph of each site from the graph and the site alone.  Both must list the
same sites, with the same graphs, in the same order, and every rewrite the
library marks valid must pass the uncached validation stages.
"""

from fractions import Fraction

import pytest

from hamgraphs import (DecoratedGraph, Edge, Vertex, canonical_form,
                       enumerate_graphs, flip, graph_to_json,
                       isotropy_weights, minimal_graph, validate_graph)
from hamgraphs.blowup_calculus import (BlowdownSite, _ordered_sites,
                                       _rewrite)
from hamgraphs.graph_core import _problems
from conftest import corpus_seeds
from test_reduce_reference import surface_chain


def _fresh_id(g, *parts):
    vid = "+".join(parts)
    while vid in g.vertices:
        vid += "'"
    return vid


def _merge(g, u, w, mu):
    merged = _fresh_id(g, u, w)
    vertices = [v for v in g.vertices.values() if v.id not in (u, w)]
    vertices.append(Vertex(merged, "point", mu))
    edges = [Edge(merged if e.a in (u, w) else e.a,
                  merged if e.b in (u, w) else e.b, e.k)
             for e in g.edges if {e.a, e.b} != {u, w}]
    return DecoratedGraph(vertices, edges)


def _a_sites(g):
    for e in g.edges:
        if g.is_extremal(e.a) or g.is_extremal(e.b):
            continue
        v_bot, v_top = sorted((e.a, e.b), key=g.moment)
        m = isotropy_weights(g, v_top)[1]
        n = -isotropy_weights(g, v_bot)[0]
        if m + n != e.k:
            continue
        lam = Fraction(g.moment(v_top) - g.moment(v_bot), e.k)
        yield ((0, -e.k, (v_bot, v_top)),
               BlowdownSite("A", (v_bot, v_top), lam),
               _merge(g, v_bot, v_top, g.moment(v_top) - m * lam))


def _c_sites(g, side, ext, sgn):
    a, b = sorted(abs(x) for x in isotropy_weights(g, ext.id))
    for n, d in dict.fromkeys(((a, b), (b, a))):
        for q in g.interior_ids():
            down, up = isotropy_weights(g, q)
            outward, inward = (up, -down) if sgn > 0 else (-down, up)
            if outward != a + b or inward != d:
                continue
            linked = any({e.a, e.b} == {ext.id, q} for e in g.edges)
            if (d >= 2) != linked:
                continue
            lam = Fraction(abs(g.moment(q) - ext.moment), d)
            yield ((1, lam, side != "min", (ext.id, q)),
                   BlowdownSite("C", (ext.id, q), lam, side),
                   _merge(g, ext.id, q, ext.moment - sgn * n * lam))


def _d_sites(g, side, ext, sgn):
    if ext.genus != 0:
        return
    vertices = [v for v in g.vertices.values() if v.id != ext.id]
    vertices.append(Vertex(_fresh_id(g, ext.id), "point",
                           ext.moment - sgn * ext.area))
    yield ((2, side != "min"), BlowdownSite("D", (ext.id,), ext.area, side),
           DecoratedGraph(vertices, g.edges))


def _b_sites(g, side, ext, sgn):
    for q in g.interior_ids():
        if g.edges_at(q):
            continue
        lam = abs(g.moment(q) - ext.moment)
        vertices = [Vertex(v.id, v.kind, v.moment, v.area + lam, v.genus)
                    if v.id == ext.id else v
                    for v in g.vertices.values() if v.id != q]
        yield ((3, lam, side != "max", (q,)),
               BlowdownSite("B", (q,), lam, side),
               DecoratedGraph(vertices, g.edges))


def reference_sites(g):
    """Every candidate rewrite that validate_graph accepts, as (site,
    graph) pairs in preference order."""
    options = list(_a_sites(g))
    for side, ext, sgn in (("min", g.min_vertex(), 1),
                           ("max", g.max_vertex(), -1)):
        if ext.kind == "point":
            options += _c_sites(g, side, ext, sgn)
        else:
            options += _d_sites(g, side, ext, sgn)
            options += _b_sites(g, side, ext, sgn)
    options.sort(key=lambda option: option[0])
    return [(site, result) for _, site, result in options
            if validate_graph(result) == []]


def closure(graphs):
    """The graphs and every graph the reference blow-downs reach from
    them, one per exact isomorphism class."""
    seen = {canonical_form(g).digest for g in graphs}
    out = list(graphs)
    todo = list(graphs)
    while todo:
        for _, h in reference_sites(todo.pop()):
            digest = canonical_form(h).digest
            if digest not in seen:
                seen.add(digest)
                out.append(h)
                todo.append(h)
    return out


def flipped_and_hirzebruch_seeds():
    seeds = [minimal_graph("hirzebruch", "right", n, r=2, s=1)
             for n in (1, 2, 3)]
    seeds += [minimal_graph("hirzebruch", "left", n, c, d)
              for n, c, d in ((0, 1, 2), (1, 1, 1), (2, 2, 1))]
    seeds += [minimal_graph("hirzebruch", "middle", 2, 1, 1, 3, 1),
              minimal_graph("cp2-surface", 0, 3),
              minimal_graph("ruled", 1, 1, 2, 1),
              minimal_graph("ruled", 2, -1, 3, 1)]
    seeds += [flip(g) for g in seeds + [g for _, g in corpus_seeds()]]
    return [("seed%d" % i, g) for i, g in enumerate(seeds)]


def assert_same_sites(graphs):
    counts = {}
    for g in graphs:
        options = [(site, _rewrite(g, site)) for site in _ordered_sites(g)]
        got = [(site, graph_to_json(h)) for site, h in options]
        want = [(site, graph_to_json(h)) for site, h in reference_sites(g)]
        assert got == want, graph_to_json(g)
        # every rewrite is marked valid, and the uncached stages agree
        for site, h in options:
            assert h._problems == (), site
            assert _problems(h) == [], (site, _problems(h))
        for site, _ in got:
            counts[site.pattern] = counts.get(site.pattern, 0) + 1
    return counts


def test_same_sites_on_closed_corpus(enumerated):
    graphs = closure([rec.graph for rec in enumerated])
    assert len(graphs) > len(enumerated)
    assert set(assert_same_sites(graphs)) == set("ABCD")


def test_same_sites_on_flipped_and_hirzebruch_seeds():
    recs = enumerate_graphs(flipped_and_hirzebruch_seeds(), 2)
    graphs = closure([rec.graph for rec in recs])
    assert set(assert_same_sites(graphs)) == set("ABCD")


@pytest.mark.parametrize("k", range(1, 7))
def test_same_sites_on_surface_chain(k):
    counts = assert_same_sites(closure([surface_chain(k)]))
    assert counts.get("D") and counts.get("B")
