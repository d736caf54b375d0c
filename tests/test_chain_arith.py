from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgraphs import (SURFACE_END, ChainError, WeightChain, b_sequence,
                       chain_fan, enumerate_graphs, kho_d, minimal_graph,
                       self_intersections, validate_chain)
from hamgraphs.graph_core import _sphere_links


def surf_chain(ks):
    return WeightChain(tuple(ks), SURFACE_END, SURFACE_END)


@st.composite
def valid_chains(draw):
    """Chains built by the recurrence k_{i+1} = c_i k_i - k_{i-1} with
    coprime positive seeds; this preserves both validity conditions."""
    a = draw(st.integers(1, 12))
    b = draw(st.integers(1, 12))
    if gcd(a, b) != 1:
        a = 1
    ks = [a, b]
    length = draw(st.integers(2, 8))
    cs = draw(st.lists(st.integers(1, 4), min_size=length, max_size=length))
    for c in cs:
        nxt = c * ks[-1] - ks[-2]
        if nxt < 1 or nxt > 50 or len(ks) >= 8:
            break
        ks.append(nxt)
    def end_weight(k, neighbor):
        # the extremum's other weight w needs k | (w + neighbor)
        w = (-neighbor) % k
        return w if w else 1

    bottom = SURFACE_END if ks[0] == 1 and draw(st.booleans()) \
        else end_weight(ks[0], ks[1])
    top = SURFACE_END if ks[-1] == 1 and draw(st.booleans()) \
        else end_weight(ks[-1], ks[-2])
    return WeightChain(tuple(ks), bottom, top)


def test_validate_examples():
    assert validate_chain(surf_chain([1, 2, 1])) == []
    assert validate_chain(WeightChain((3, 2, 3), 1, 1)) == []
    assert validate_chain(WeightChain((2, 4), 1, 1))


def test_surface_end_needs_weight_one():
    assert validate_chain(WeightChain((2, 1), SURFACE_END, SURFACE_END))
    assert validate_chain(WeightChain((2, 1), 1, SURFACE_END)) == []


def test_self_intersections_examples():
    assert self_intersections(surf_chain([1, 2, 1])) == [-2, -1, -2]
    assert self_intersections(WeightChain((3, 2, 3), 1, 1))[1] == -3
    assert self_intersections(surf_chain([1])) == [0]


def test_self_intersections_all_ones():
    es = self_intersections(surf_chain([1] * 5))
    assert es[0] == es[-1] == -1
    assert es[1:-1] == [-2, -2, -2]


def test_self_intersections_match_the_sphere_table():
    # the sphere table's rows (low, high, k, S.S, rise) hold S.S by
    # localization on the graph; the chain arithmetic must give the same
    # numbers from the weights alone, on every strand of a two-surface
    # graph (each a chain with a surface at either end)
    seeds = [("ruled(%d,%d)" % gn, minimal_graph("ruled", *gn, 3, 2))
             for gn in ((0, 0), (0, 1), (1, 0))]
    strands = 0
    for rec in enumerate_graphs(seeds, 3):
        g = rec.graph
        assert g.min_vertex().kind == g.max_vertex().kind == "surface"
        for strand in _sphere_links(g).strands.values():
            chain = WeightChain([r[2] for r in strand])
            assert self_intersections(chain) == [r[3] for r in strand]
            strands += 1
    assert strands == 96


def test_b_sequence_examples():
    assert b_sequence(surf_chain([1, 2, 1]), 0, 1) == [0, 1, 1]
    assert b_sequence(WeightChain((3, 2, 3), 1, 1), 1, 1) == [1, 1, 2]
    assert b_sequence(WeightChain((1, 1), 1, 1), 0, 1) == [0, 1]
    with pytest.raises(ChainError):
        b_sequence(surf_chain([1, 2, 1]), 0, 2)


def test_chain_fan_examples():
    assert chain_fan(surf_chain([1, 2, 1]), 0, 1) == [(1, 0), (2, 1), (1, 1)]
    fan = chain_fan(WeightChain((3, 2, 3), 1, 1), 1, 1)
    assert fan == [(3, 1), (2, 1), (3, 2)]
    (k1, b1), (kl, bl) = fan[0], fan[-1]
    assert k1 * bl - b1 * kl == kho_d(WeightChain((3, 2, 3), 1, 1))
    assert chain_fan(WeightChain((1, 1), 1, 1), 0, 1) == [(1, 0), (1, 1)]


def test_kho_d_examples():
    assert kho_d(surf_chain([1, 2, 1])) == 1
    assert kho_d(WeightChain((3, 2, 3), 1, 1)) == 3
    assert kho_d(WeightChain((2, 3), 1, 1)) == 1
    with pytest.raises(ChainError):
        kho_d(WeightChain((2,), 1, 1))


@settings(max_examples=1000, deadline=None)
@given(valid_chains())
def test_random_chain_properties(c):
    assert validate_chain(c) == []
    ks = c.weights
    es = self_intersections(c)
    assert all(isinstance(e, int) for e in es)
    # a weight strictly larger than both neighbors forces e = -1
    padded = (c.end_weight("bottom"),) + ks + (c.end_weight("top"),)
    for j in range(1, len(padded) - 1):
        if padded[j] > max(padded[j - 1], padded[j + 1]):
            assert es[j - 1] == -1
    # weight relation at every sphere: north minus south = -e k, with
    # north weight k_{i+1} and south weight -k_{i-1}
    for j in range(1, len(padded) - 1):
        assert padded[j + 1] + padded[j - 1] == -es[j - 1] * padded[j]
    bs = b_sequence(c)
    for i in range(len(ks) - 1):
        assert ks[i] * bs[i + 1] - bs[i] * ks[i + 1] == 1
    if len(ks) >= 2:
        d = kho_d(c)
        assert isinstance(d, int) and d > 0
        fan = chain_fan(c)
        (k1, b1), (kl, bl) = fan[0], fan[-1]
        assert k1 * bl - b1 * kl == d


def reference_kho_d(c):
    """kho_d as it was: the sum of 1/(k_i k_{i+1}) in Fraction arithmetic,
    times k_1 k_l."""
    ks = c.weights
    total = sum(Fraction(1, ks[i] * ks[i + 1]) for i in range(len(ks) - 1))
    return total * ks[0] * ks[-1]


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(valid_chains())
def test_kho_d_and_fan_match_references(c):
    # neither the fan's determinants nor kho_d's sum are checked in the
    # library
    fan = chain_fan(c)
    for (k, b), (k2, b2) in zip(fan, fan[1:]):
        assert k * b2 - b * k2 == 1, fan
    if len(c.weights) >= 2:
        d = reference_kho_d(c)
        assert d.denominator == 1 and d > 0
        assert kho_d(c) == d, c
