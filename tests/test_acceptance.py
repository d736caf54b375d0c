"""End-to-end acceptance checks.

Each test is one pass/fail line covering a headline guarantee of the
package: oracle equality of the two density computations, the reference
examples, the chain arithmetic identities, blow-up round trips,
classification and reduction over the enumerated corpus, and the homology
positivity results.
"""

import random
import time
from fractions import Fraction
from math import ceil, gcd

from hamgraphs import (SURFACE_END, WeightChain, b_sequence, blowup,
                       blowup_symbolic, chain_fan, classify_isolated,
                       decompose_positive, density, extend_graph,
                       extremal_self_intersections, flip, intersection_matrix,
                       is_isomorphic, isotropy_weights, kho_d,
                       match_minimal_family, minimal_graph, monotone_check,
                       pair_with, polygon_affine_equivalent,
                       polygon_pushforward, polygon_to_graph,
                       reduce_to_minimal, validate_chain, validate_delzant)
from hamgraphs.blowup_calculus import (_ordered_sites, _rewrite,
                                       blowdown_sites, blowup_sites,
                                       max_size)
from conftest import (S2S2_POLYGONS, TENT_POLYGONS, chopped_square_graph,
                      corpus_seeds, tent_graph)
from test_homology import positive_class_areas

F = Fraction


def test_pushforward_equals_density_on_polygon_corpus(corpus_polygons):
    assert len(corpus_polygons) >= 50
    start = time.monotonic()
    for Q in corpus_polygons:
        assert validate_delzant(Q) == []
        assert polygon_pushforward(Q) == density(polygon_to_graph(Q))
    assert time.monotonic() - start < 5.0


def test_tent_density_and_polygons():
    rho = density(tent_graph())
    assert rho.breakpoints == (0, 1, 3, 4)
    assert rho.values == (0, 1, 1, 0)
    assert rho.value_inside(F(1, 2)) == F(1, 2)   # slope y below 1
    assert rho.value_inside(2) == 1               # constant 1 on [1, 3]
    assert rho.value_inside(F(7, 2)) == F(1, 2)   # slope 4 - y above 3
    for Q in TENT_POLYGONS[:3]:
        assert polygon_pushforward(Q) == rho


def test_equivalent_polygons_same_graph():
    graphs = [polygon_to_graph(Q) for Q in S2S2_POLYGONS]
    for g in graphs[1:]:
        assert is_isomorphic(graphs[0], g)
    for Q1 in S2S2_POLYGONS:
        for Q2 in S2S2_POLYGONS:
            assert polygon_affine_equivalent(Q1, Q2)


def test_inequivalent_polygons_same_graph():
    g1 = polygon_to_graph(TENT_POLYGONS[0])
    g2 = polygon_to_graph(TENT_POLYGONS[1])
    assert is_isomorphic(g1, g2)
    assert not polygon_affine_equivalent(TENT_POLYGONS[0], TENT_POLYGONS[1])


def test_extremal_sum_identity_on_corpus(enumerated):
    assert len(enumerated) >= 500
    start = time.monotonic()
    for rec in enumerated:
        g = rec.graph
        ext = extremal_self_intersections(g)
        total = sum(F(1, -w1 * w2)
                    for vid in g.interior_ids()
                    for w1, w2 in [isotropy_weights(g, vid)])
        assert ext.e_min + ext.e_max == -total
    assert time.monotonic() - start < 60.0


def _random_chain(rng):
    a, b = rng.randint(1, 12), rng.randint(1, 12)
    if gcd(a, b) != 1:
        a = 1
    ks = [a, b]
    for _ in range(rng.randint(0, 6)):
        nxt = rng.randint(1, 4) * ks[-1] - ks[-2]
        if nxt < 1 or nxt > 50:
            break
        ks.append(nxt)

    def end_weight(k, neighbor):
        w = (-neighbor) % k
        return w if w else 1

    bottom = SURFACE_END if ks[0] == 1 and rng.random() < 0.5 \
        else end_weight(ks[0], ks[1])
    top = SURFACE_END if ks[-1] == 1 and rng.random() < 0.5 \
        else end_weight(ks[-1], ks[-2])
    return WeightChain(tuple(ks), bottom, top)


def test_chain_determinant_identities():
    rng = random.Random(1729)
    for _ in range(1000):
        c = _random_chain(rng)
        assert validate_chain(c) == []
        d = kho_d(c)
        fan = chain_fan(c)
        (k1, b1), (kl, bl) = fan[0], fan[-1]
        assert isinstance(d, int) and d > 0
        assert d == k1 * bl - b1 * kl
        bs = b_sequence(c)
        for i in range(len(bs) - 1):
            assert c.weights[i] * bs[i + 1] - bs[i] * c.weights[i + 1] == 1


def test_blowup_blowdown_round_trip(enumerated):
    for rec in enumerated:
        g = rec.graph
        for site in blowup_sites(g):
            sup = max_size(g, site)
            assert sup > 0
            for lam in (sup / 2, sup / 4):
                h = blowup(g, site.vertex, lam)
                # a listed site of this size blows the graph back down
                candidates = [_rewrite(h, s) for s in blowdown_sites(h)
                              if s.lam == lam]
                assert any(is_isomorphic(down, g) for down in candidates)
    # two blow-ups at disjoint sites commute up to isomorphism
    checked = 0
    for rec in enumerated:
        if rec.depth > 1 or checked >= 40:
            continue
        g = rec.graph
        sites = blowup_sites(g)
        for s1 in sites:
            for s2 in sites:
                if s1.vertex >= s2.vertex:
                    continue
                sup1 = max_size(g, s1)
                try:
                    a = blowup(blowup(g, s1.vertex, sup1 / 4),
                               s2.vertex, sup1 / 4)
                    b = blowup(blowup(g, s2.vertex, sup1 / 4),
                               s1.vertex, sup1 / 4)
                except Exception:
                    continue
                assert is_isomorphic(a, b)
                checked += 1
    assert checked >= 20


def test_hirzebruch_blowup_bounds():
    g = minimal_graph("hirzebruch", "right", 2, r=2, s=1)
    sites = blowup_sites(g)
    assert len(sites) == 3
    for site in sites:
        assert max_size(g, site) == 1


def test_every_blowdown_step_blows_back_up(enumerated):
    # the other direction of the round trip: undo each listed blow-down by
    # a blow-up of its size at the vertex it made (a B step keeps the
    # surface on its side), which must give back exactly g
    patterns = set()
    steps = 0
    for rec in enumerated:
        for g in (rec.graph, flip(rec.graph)):
            for site in _ordered_sites(g):
                h = _rewrite(g, site)
                if site.pattern == "B":
                    vid = (h.min_vertex() if site.side == "min"
                           else h.max_vertex()).id
                else:
                    (vid,) = set(h.vertices) - set(g.vertices)
                assert is_isomorphic(blowup(h, vid, site.lam), g), site
                patterns.add(site.pattern)
                steps += 1
    assert patterns == set("ABCD") and steps > 4000


def test_isolated_graphs_classify_and_round_trip(enumerated):
    checked = 0
    for rec in enumerated:
        g = rec.graph
        if any(v.kind != "point" for v in g.vertices.values()):
            continue
        assert len(extend_graph(g).branches) <= 2
        Q = classify_isolated(g)
        assert validate_delzant(Q) == []
        assert is_isomorphic(polygon_to_graph(Q), g)
        checked += 1
    assert checked >= 100


def test_reduction_reaches_minimal_in_exact_steps(enumerated):
    seeds = corpus_seeds()
    iso_seed = alternative = 0
    for rec in enumerated:
        minimal, steps = reduce_to_minimal(rec.graph)
        assert len(steps) == rec.depth
        assert match_minimal_family(minimal) is not None
        if any(is_isomorphic(minimal, s) for _, s in seeds):
            iso_seed += 1
        else:
            # a legitimate different minimal model of the same space
            alternative += 1
    assert iso_seed + alternative == len(enumerated)
    assert iso_seed >= alternative
    # the chopped square admits both inverse-B options
    sites = blowdown_sites(chopped_square_graph())
    assert sorted(s.lam for s in sites if s.pattern == "B") == [2, 3]


def test_class_positivity_matches_monotonicity():
    rng = random.Random(40320)
    triples = 0
    while triples < 100:
        n = rng.randint(0, 2)
        r = rng.randint(1, 4)
        g = minimal_graph("ruled", 0, n, r, 1)
        for _ in range(rng.randint(0, 2)):
            sites = blowup_sites(g)
            site = sites[rng.randrange(len(sites))]
            sup = max_size(g, site)
            assert sup > 0
            g = blowup(g, site.vertex, sup * F(1, rng.randint(2, 5)))
        sites = blowup_sites(g)
        site = sites[rng.randrange(len(sites))]
        sup = max_size(g, site)
        assert sup > 0
        lam = sup * F(rng.randint(1, 8), 4)   # from sup/4 up to 2 sup
        sb = blowup_symbolic(g, site)
        assert positive_class_areas(sb, lam) == monotone_check(sb, lam)
        triples += 1


def test_random_decompositions_reconstruct():
    rng = random.Random(5040)
    base = minimal_graph("ruled", 0, 0, 3, 1)
    once = blowup(base, base.min_vertex().id, F(1, 3))
    mid = [v.id for v in once.vertices.values()
           if v.kind == "point" and not once.is_extremal(v.id)][0]
    twice = blowup(once, mid, F(1, 4))
    graphs = [once, twice]
    successes = 0
    while successes < 50:
        g = graphs[successes % 2]
        data = intersection_matrix(g)
        coeffs = {"Bmin": 0, "Bmax": rng.randint(0, 3),
                  "F": rng.randint(0, 3)}
        for ci, chain in enumerate(data.chains, start=1):
            a = 0
            coeffs["E:%d:1" % ci] = 0
            for i in range(2, len(chain) + 1):
                k_prev, k = chain[i - 2].k, chain[i - 1].k
                low = ceil(F(a * k, k_prev))
                a = low + rng.randint(0, 2)
                coeffs["E:%d:%d" % (ci, i)] = a
        inters = pair_with(data, coeffs)
        if any(v < 0 for v in inters.values()):
            continue
        dec = decompose_positive(g, inters)
        assert dec.ok, dec.failure
        assert all(v >= 0 for v in dec.coefficients.values())
        assert pair_with(data, dec.coefficients) == inters
        successes += 1
