"""reduce_to_minimal against the searches it replaced.

The first reference tries every blow-down order, ranks each finished
sequence, and keeps the first best one in depth-first order.  The second is
the memoised dynamic program that expands every state it reaches, without
the rank bound.  The bounded search must return the same minimal graph and
the same step records as both, and its bound must never fall below the
exact rank the second reference finds.
"""

from fractions import Fraction

import pytest

from hamgraphs import (GraphError, blowdown_sites, blowup, blowup_calculus,
                       graph_to_json, match_minimal_family, minimal_graph,
                       reduce_to_minimal)
from hamgraphs.blowup_calculus import _ordered_sites, _rank_bound, _rewrite


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
        for site in options:
            records.append(site)
            dfs(_rewrite(cur, site), records)
            records.pop()

    dfs(g, [])
    return best[2], best[1]


def state_of(g):
    return frozenset(g.vertices.values()), frozenset(g.edges)


def memoised_reduce(g, best=None):
    """The dynamic program without the rank bound: every option of every
    state is solved, and a state takes the first best one.  best, when
    given, collects state -> (rank, first site or None, graph after it,
    graph) for every state reached."""
    best = {} if best is None else best

    def solve(cur):
        state = state_of(cur)
        if state in best:
            return best[state]
        if match_minimal_family(cur) is not None:
            choice = ((0, 0, -len(cur.vertices)), None, cur)
        else:
            options = _ordered_sites(cur)
            if not options:
                raise GraphError("internal failure: graph matches no minimal "
                                 "family and admits no blow-down")
            choice = None
            for site in options:
                nxt = _rewrite(cur, site)
                (n_other, n_all, size), _, _, _ = solve(nxt)
                rank = (n_other + (site.pattern != "D"), n_all + 1, size)
                if choice is None or rank > choice[0]:
                    choice = (rank, site, nxt)
        best[state] = choice + (cur,)
        return best[state]

    steps = []
    cur = g
    while True:
        _, site, nxt, _ = solve(cur)
        if site is None:
            return nxt, steps
        steps.append(site)
        cur = nxt


def surface_chain(k, genus=0, n=0):
    """ruled(genus,n,100,10) with its minimum surface blown up k times, the
    i-th time at size 1/2^i."""
    g = minimal_graph("ruled", genus, n, 100, 10)
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


def assert_same_as_memoised(g):
    minimal, steps = reduce_to_minimal(g)
    ref_minimal, ref_steps = memoised_reduce(g)
    assert graph_to_json(minimal) == graph_to_json(ref_minimal)
    assert steps == ref_steps


def test_matches_memoised_reference_on_corpus(enumerated_small):
    for rec in enumerated_small:
        assert_same_as_memoised(rec.graph)


@pytest.mark.parametrize("genus", [0, 1])
def test_matches_memoised_reference_on_surface_chain(genus):
    for k in range(1, 8):
        assert_same_as_memoised(surface_chain(k, genus))


def test_rank_bound_is_admissible(enumerated_small):
    # rank <= bound on every state; the bound is met wherever the best
    # sequence has no D step and ends at cp2, cp2-surface or a ruled model,
    # since no other terminal the state can reach ranks as high
    best = {}
    for rec in enumerated_small:
        memoised_reduce(rec.graph, best)
    patterns, tight = set(), 0
    for rank, site, nxt, cur in best.values():
        assert rank <= _rank_bound(cur), (graph_to_json(cur), rank)
        while site is not None:
            patterns.add(site.pattern)
            _, site, nxt, _ = best[state_of(nxt)]
        end = match_minimal_family(nxt)
        if rank[0] == rank[1] and end in ("cp2", "cp2-surface", "ruled"):
            assert rank == _rank_bound(cur), (graph_to_json(cur), rank)
            tight += 1
    assert patterns == set("ABCD") and tight > 100


@pytest.mark.parametrize("genus,n", [(0, 0), (1, 0), (0, 1)])
def test_surface_chain_expands_about_k_states(monkeypatch, genus, n):
    # the 16-fold chain has about 3^16 states; the bound stops each state
    # at its first option
    k = 16
    g = surface_chain(k, genus, n)
    expanded = []

    def counting(cur):
        expanded.append(cur)
        return _ordered_sites(cur)

    monkeypatch.setattr(blowup_calculus, "_ordered_sites", counting)
    minimal, steps = reduce_to_minimal(g)
    assert len(steps) == k
    assert match_minimal_family(minimal) == "ruled"
    assert len(expanded) <= k + 1


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
        ordered = _ordered_sites(g)
        listed = blowdown_sites(g)
        assert len(ordered) == len(listed) and set(ordered) == set(listed)
        keys = [documented_preference(g, site) for site in ordered]
        assert keys == sorted(keys)
        patterns.update(site.pattern for site in ordered)
    assert patterns == set("ABCD")
