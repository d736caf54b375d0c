from fractions import Fraction

import pytest

from hamgraphs import (GraphError, blowup, blowup_class_transform,
                       blowup_symbolic, class_values, decompose_positive,
                       intersection_matrix, minimal_graph, pair_with,
                       positivity_equiv)
from hamgraphs import graph_core
from hamgraphs.blowup_calculus import blowup_sites, max_size, site_for_vertex
from conftest import chopped_square_graph, s2s2_graph

F = Fraction


def ruled(r=3, n=0):
    return minimal_graph("ruled", 0, n, r, 1, 0)


def blown_ruled(lam=F(1, 3)):
    g = ruled()
    return blowup(g, g.min_vertex().id, lam)


def twice_blown_ruled():
    g = blown_ruled()
    p = [v.id for v in g.vertices.values()
         if v.kind == "point" and not g.is_extremal(v.id)][0]
    return blowup(g, p, F(1, 4))


def test_trivial_ruled_matrix():
    data = intersection_matrix(ruled())
    assert data.labels == ("Bmin", "Bmax", "F")
    assert data.matrix == ((0, 0, 1), (0, 0, 1), (1, 1, 0))
    assert data.basis == ("Bmax", "F")
    assert data.chains == ()


def test_blown_ruled_matrix():
    data = intersection_matrix(blown_ruled())
    assert data.labels == ("Bmin", "Bmax", "F", "E:1:1", "E:1:2")
    pos = {lab: i for i, lab in enumerate(data.labels)}
    diag = [data.matrix[pos[l]][pos[l]] for l in data.labels]
    assert diag == [-1, 0, 0, -1, -1]
    assert data.matrix[pos["E:1:1"]][pos["E:1:2"]] == 1
    assert data.matrix[pos["Bmin"]][pos["E:1:1"]] == 1
    assert data.matrix[pos["Bmax"]][pos["E:1:2"]] == 1
    assert data.matrix[pos["Bmin"]][pos["E:1:2"]] == 0


def test_chain_121_diagonal():
    data = intersection_matrix(twice_blown_ruled())
    assert len(data.chains) == 1
    assert [s.k for s in data.chains[0]] == [1, 2, 1]
    pos = {lab: i for i, lab in enumerate(data.labels)}
    diag = [data.matrix[pos[l]][pos[l]]
            for l in ("E:1:1", "E:1:2", "E:1:3")]
    assert diag == [-2, -1, -2]


def test_matrix_rejects_fractional_extremal():
    with pytest.raises(GraphError):
        intersection_matrix(s2s2_graph())


def test_chopped_square_matrix():
    data = intersection_matrix(chopped_square_graph())
    pos = {lab: i for i, lab in enumerate(data.labels)}
    assert [data.matrix[pos[l]][pos[l]] for l in data.labels] == \
        [0, -1, 0, -1, -1]


def test_chain_structure_is_built_once_per_graph(monkeypatch):
    data, values = intersection_matrix(twice_blown_ruled()), \
        class_values(twice_blown_ruled())
    g = twice_blown_ruled()
    calls = []
    chains = graph_core._chains

    def counting(graph, frees):
        calls.append(graph)
        return chains(graph, frees)

    monkeypatch.setattr(graph_core, "_chains", counting)
    assert intersection_matrix(g) == data
    assert class_values(g) == values
    # compare and the symbolic blow-up read the same strands
    for v in g.vertices:
        for w in g.vertices:
            graph_core.compare(g, v, w)
    for site in blowup_sites(g):
        blowup_symbolic(g, site)
    assert calls == [g]


def test_class_values_blown_ruled():
    vals = class_values(blown_ruled(F(1, 3)))
    assert vals["Bmin"] == F(8, 3)
    assert vals["Bmax"] == 3
    assert vals["F"] == 1
    assert vals["E:1:1"] == F(1, 3)
    assert vals["E:1:2"] == F(2, 3)


def test_transform_matches_recomputation():
    for g in (ruled(), ruled(2, 1), blown_ruled(), twice_blown_ruled(),
              chopped_square_graph()):
        vals = class_values(g)
        for site in blowup_sites(g):
            sup, _ = max_size(g, site)
            lam = sup / 3
            moved = blowup_class_transform(g, vals, site, lam)
            assert moved == class_values(blowup(g, site.vertex, lam))


def test_positivity_equiv_mixed_lams():
    g = ruled()
    for site in blowup_sites(g):
        sb = blowup_symbolic(g, site)
        sup, _ = max_size(g, site)
        assert positivity_equiv(sb, [sup / 2, sup / 4, sup * 2, sup * 4])
    g = twice_blown_ruled()
    for site in blowup_sites(g):
        sup, _ = max_size(g, site)
        assert sup > 0
        sb = blowup_symbolic(g, site)
        assert positivity_equiv(sb, [sup / 2, sup * 3])


def test_decompose_fiber():
    g = ruled()
    data = intersection_matrix(g)
    dec = decompose_positive(g, {"Bmin": 1, "Bmax": 1, "F": 0})
    assert dec.ok
    assert dec.coefficients == {"Bmin": 0, "Bmax": 0, "F": 1}
    assert pair_with(data, dec.coefficients) == \
        {"Bmin": 1, "Bmax": 1, "F": 0}


def test_decompose_round_trip():
    g = blown_ruled()
    data = intersection_matrix(g)
    want = {"Bmin": 0, "Bmax": 1, "F": 1, "E:1:1": 0, "E:1:2": 1}
    inters = pair_with(data, want)
    assert all(v >= 0 for v in inters.values())
    dec = decompose_positive(g, inters)
    assert dec.ok
    assert pair_with(data, dec.coefficients) == inters


def test_decompose_rejects_negative_input():
    g = ruled()
    with pytest.raises(GraphError):
        decompose_positive(g, {"Bmin": -1, "Bmax": 1, "F": 0})


def test_decompose_nonnegative_data_always_succeeds():
    # every consistent nonnegative intersection vector on the twice-blown
    # ruled graph admits a valid chain-monotone decomposition, and the
    # pairing of the result reproduces the input exactly
    import itertools
    g = twice_blown_ruled()
    data = intersection_matrix(g)
    checked = 0
    for combo in itertools.product(range(4), repeat=len(data.labels)):
        inters = dict(zip(data.labels, combo))
        try:
            dec = decompose_positive(g, inters)
        except GraphError:
            continue
        assert dec.ok, dec.failure
        assert pair_with(data, dec.coefficients) == \
            {lab: F(v) for lab, v in inters.items()}
        checked += 1
    assert checked >= 20
