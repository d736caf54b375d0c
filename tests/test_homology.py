import json
from fractions import Fraction

import pytest

from hamgraphs import (GraphError, blowup, blowup_symbolic, class_values,
                       decompose_positive, graph_to_json, instantiate,
                       intersection_matrix, minimal_graph, monotone_check,
                       pair_with)
from hamgraphs import graph_core
from hamgraphs.blowup_calculus import blowup_sites, max_size, site_for_vertex
from hamgraphs.cli import run
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
    table = graph_core._SphereTable

    def counting(*fields):
        calls.append(fields)
        return table(*fields)

    # g's rows are built in one _SphereTable call and its strands once on
    # top of them; after that the table kept on g is never replaced
    monkeypatch.setattr(graph_core, "_SphereTable", counting)
    assert intersection_matrix(g) == data
    built = g._spheres
    assert built.strands is not None
    assert class_values(g) == values
    # compare and the symbolic blow-up read the same table
    for v in g.vertices:
        for w in g.vertices:
            graph_core.compare(g, v, w)
    for site in blowup_sites(g):
        blowup_symbolic(g, site)
    assert g._spheres is built
    assert calls == [built[:1]]


def test_class_values_blown_ruled():
    vals = class_values(blown_ruled(F(1, 3)))
    assert vals["Bmin"] == F(8, 3)
    assert vals["Bmax"] == 3
    assert vals["F"] == 1
    assert vals["E:1:1"] == F(1, 3)
    assert vals["E:1:2"] == F(2, 3)


def transformed_values(g, values, site, lam):
    """The class values after a blow-up of size lam at the site, from the
    values of g: the two curves through the blown-up point each lose lam,
    and the exceptional sphere between them has area lam.  Along the line
    Bmin, chain, Bmax the point lies after position j: on the bottom
    surface j = 0 with the fiber as its chain, on the top one j = 1, and
    inside, its down sphere's position on its chain.  A chain the blow-up
    leaves keeps its values, found by its interior points."""
    def inner(chain):
        return {s.north for s in chain[:-1]}

    def elabels(ci, chain):
        return ["E:%d:%d" % (ci, i) for i in range(1, len(chain) + 1)]

    old = intersection_matrix(g).chains
    line, j = ["Bmin", "F", "Bmax"], int(site.tag == "SurfaceMax")
    for ci, chain in enumerate(old, start=1):
        if site.vertex in inner(chain):
            line = ["Bmin"] + elabels(ci, chain) + ["Bmax"]
            j = next(i for i, s in enumerate(chain, start=1)
                     if s.north == site.vertex)
    vals = [values[lab] for lab in line]
    vals[j:j + 2] = [vals[j] - lam, lam, vals[j + 1] - lam]
    out = {"Bmin": vals[0], "Bmax": vals[-1], "F": values["F"]}
    new = intersection_matrix(blowup(g, site.vertex, lam)).chains
    for ci, chain in enumerate(new, start=1):
        kept = [elabels(oci, c) for oci, c in enumerate(old, start=1)
                if inner(c) == inner(chain)]
        moved = [values[lab] for lab in kept[0]] if kept else vals[1:-1]
        out.update(zip(elabels(ci, chain), moved))
    return out


def positive_class_areas(sb, lam):
    """Whether every spanning curve of instantiate(sb, lam) has positive
    area, read from Vertex.moment: each surface's area label, the fiber
    between the surfaces and each chain sphere's (moment(north) -
    moment(south))/k.  The chains are those of the admissible size
    sup/2, which has the same vertices and edges; at a size outside
    (0, sup) the graph need not be valid, so class_values refuses it."""
    chains = intersection_matrix(instantiate(sb, sb.sup / 2)).chains
    h = instantiate(sb, lam)
    lo, hi = sorted(h.surfaces(), key=lambda v: v.moment)
    areas = [lo.area, hi.area, hi.moment - lo.moment]
    areas += [(h.moment(s.north) - h.moment(s.south)) / s.k
              for chain in chains for s in chain]
    return all(a > 0 for a in areas)


def test_transform_matches_recomputation():
    for g in (ruled(), ruled(2, 1), blown_ruled(), twice_blown_ruled(),
              chopped_square_graph()):
        vals = class_values(g)
        for site in blowup_sites(g):
            lam = max_size(g, site) / 3
            moved = transformed_values(g, vals, site, lam)
            assert moved == class_values(blowup(g, site.vertex, lam))


def test_class_positivity_matches_monotonicity_mixed_lams():
    g = ruled()
    for site in blowup_sites(g):
        sb = blowup_symbolic(g, site)
        sup = max_size(g, site)
        for lam in (sup / 2, sup / 4, sup * 2, sup * 4):
            assert positive_class_areas(sb, lam) == monotone_check(sb, lam)
    g = twice_blown_ruled()
    for site in blowup_sites(g):
        sup = max_size(g, site)
        assert sup > 0
        sb = blowup_symbolic(g, site)
        for lam in (sup / 2, sup * 3):
            assert positive_class_areas(sb, lam) == monotone_check(sb, lam)


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


def test_decompose_and_pair_refuse_what_is_not_an_integer():
    # a float, a string, a bool or a non-integer Fraction would stand for
    # some other intersection number or coefficient
    g = ruled()
    data = intersection_matrix(g)
    for value, why in ((0.5, "an int or a Fraction, not float"),
                       (1.0, "an int or a Fraction, not float"),
                       ("1", "an int or a Fraction, not str"),
                       (True, "an int or a Fraction, not bool"),
                       (None, "an int or a Fraction, not NoneType"),
                       (F(1, 2), "an integer, not 1/2")):
        with pytest.raises(GraphError) as info:
            decompose_positive(g, {"Bmin": 1, "Bmax": 1, "F": value})
        assert str(info.value) == "intersection number F must be " + why
        with pytest.raises(GraphError) as info:
            pair_with(data, {"Bmin": 0, "Bmax": 0, "F": value})
        assert str(info.value) == "coefficient F must be " + why
    # an integer Fraction, as pair_with returns, is read as its integer
    inters = {"Bmin": F(1), "Bmax": 1, "F": F(0)}
    assert decompose_positive(g, inters).coefficients == \
        {"Bmin": 0, "Bmax": 0, "F": 1}
    assert pair_with(data, {"Bmin": F(0), "Bmax": 0, "F": F(1)}) == \
        {"Bmin": 1, "Bmax": 1, "F": 0}


def test_decompose_and_pair_refuse_a_missing_or_unknown_label():
    g = ruled()
    data = intersection_matrix(g)
    for call, what in ((lambda d: decompose_positive(g, d),
                        "intersection number"),
                       (lambda d: pair_with(data, d), "coefficient")):
        with pytest.raises(GraphError) as info:
            call({"Bmin": 1, "Bmax": 1})
        assert str(info.value) == what + " F is missing"
        with pytest.raises(GraphError) as info:
            call({"Bmin": 1, "Bmax": 1, "F": 0, "Bogus": 2})
        assert str(info.value) == "unknown label Bogus"


@pytest.mark.parametrize("family, args", [("cp2-surface", (0, 3)),
                                          ("cp2", (1, 1))])
def test_homology_refuses_a_graph_without_two_surfaces(family, args,
                                                       tmp_path, capsys):
    # a valid graph with one fixed surface, and one with none
    g = minimal_graph(family, *args)
    message = "homology needs a graph with two fixed surfaces"
    for call in (intersection_matrix, class_values):
        with pytest.raises(GraphError) as info:
            call(g)
        assert str(info.value) == message
    p = tmp_path / "g.json"
    p.write_text(json.dumps(graph_to_json(g)))
    assert run(["homology", "--in", str(p)]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)
