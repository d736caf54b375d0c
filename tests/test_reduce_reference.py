"""reduce_to_minimal against the exhaustive depth-first search it replaced.

The reference below tries every blow-down order, ranks each finished
sequence, and keeps the first best one in depth-first order.  The memoised
search must return the same minimal graph and the same step records.
"""

from fractions import Fraction

from hamgraphs import (GraphError, blowdown_sites, blowup, graph_to_json,
                       match_minimal_family, minimal_graph, reduce_to_minimal)
from hamgraphs.blowup_calculus import _ordered_sites


def reference_reduce(g):
    matched = {}

    def is_minimal(cur):
        key = str(sorted((v.id, v.kind, v.moment, v.area, v.genus)
                         for v in cur.vertices.values())) + \
            str(sorted((e.a, e.b, e.k) for e in cur.edges))
        if key not in matched:
            matched[key] = match_minimal_family(cur) is not None
        return matched[key]

    best = None

    def dfs(cur, records):
        nonlocal best
        if is_minimal(cur):
            n_d = sum(1 for s in records if s.pattern == "D")
            key = (len(records) - n_d, len(records), -len(cur.vertices))
            if best is None or key > best[0]:
                best = (key, list(records), cur)
            return
        options = _ordered_sites(cur)
        if not options:
            raise GraphError("internal failure: graph matches no minimal "
                             "family and admits no blow-down")
        for site, nxt in options:
            records.append(site)
            dfs(nxt, records)
            records.pop()

    dfs(g, [])
    return best[2], best[1]


def surface_chain(k):
    """ruled(0,0,100,10) with its minimum surface blown up k times, the
    i-th time at size 1/2^i."""
    g = minimal_graph("ruled", 0, 0, 100, 10)
    for i in range(1, k + 1):
        g = blowup(g, g.min_vertex().id, Fraction(1, 2 ** i))
    return g


def assert_same_reduction(g):
    minimal, steps = reduce_to_minimal(g)
    ref_minimal, ref_steps = reference_reduce(g)
    assert graph_to_json(minimal) == graph_to_json(ref_minimal)
    assert steps == ref_steps


def test_matches_reference_on_corpus(enumerated_small):
    for rec in enumerated_small:
        assert_same_reduction(rec.graph)


def test_matches_reference_on_surface_chain():
    for k in range(1, 5):
        assert_same_reduction(surface_chain(k))


def test_six_fold_surface_chain_reduces_to_ruled():
    minimal, steps = reduce_to_minimal(surface_chain(6))
    assert len(steps) == 6
    assert match_minimal_family(minimal) == "ruled"


def documented_preference(g, site):
    """A first, largest edge weight first; then C, smaller size first and
    min side first; then D, min side first; then B, smaller size first and
    max side first."""
    if site.pattern == "A":
        k, = [e.k for e in g.edges if {e.a, e.b} == set(site.vertices)]
        return (0, -k, site.vertices)
    if site.pattern == "C":
        return (1, site.lam, site.side != "min", site.vertices)
    if site.pattern == "D":
        return (2, site.side != "min")
    return (3, site.lam, site.side != "max", site.vertices)


def test_blowdown_preference_order(enumerated_small):
    patterns = set()
    for rec in enumerated_small:
        g = rec.graph
        ordered = [site for site, _ in _ordered_sites(g)]
        listed = blowdown_sites(g)
        assert len(ordered) == len(listed) and set(ordered) == set(listed)
        keys = [documented_preference(g, site) for site in ordered]
        assert keys == sorted(keys)
        patterns.update(site.pattern for site in ordered)
    assert patterns == set("ABCD")
