import random
from fractions import Fraction

import pytest

from hamgraphs import (DecoratedGraph, Edge, GraphError, NoExtensionError,
                       ValidationError, Vertex, blowup, canonical_form,
                       compare, extend_graph, flip, graph_from_json,
                       graph_to_json, is_isomorphic, isotropy_weights,
                       max_size, minimal_graph, polygon_to_graph,
                       require_valid, shift, validate_graph)
from hamgraphs.blowup_calculus import BlowupSite, site_for_vertex
from hamgraphs.graph_core import _chains, _extremal_pair
from conftest import TENT_POLYGONS, _interior_products, s2s2_graph, tent_graph
from test_canonical_reference import relabel, twin_chain
from test_reduce_reference import surface_chain

F = Fraction


def test_s2s2_graph_is_valid():
    assert validate_graph(s2s2_graph()) == []


def test_graph_is_read_only_and_validation_returns_copies():
    g = s2s2_graph()
    with pytest.raises(TypeError):
        g.vertices["x"] = Vertex("x", "point", F(0))
    assert isinstance(g.edges, tuple)
    problems = validate_graph(g)
    problems.append("tampered")
    assert validate_graph(g) == []


def test_malformed_graph_is_built_and_reported():
    g = DecoratedGraph([Vertex("a", "point", "x"), Vertex("b", "point", F(1))],
                       [Edge("a", "zz", 2)])
    problems = validate_graph(g)
    assert any("moment is not rational" in msg for msg in problems)
    assert any("unknown endpoint" in msg for msg in problems)


@pytest.mark.parametrize("bad_id", [1, None, ("a", 1)])
def test_id_that_is_not_a_string_is_reported(bad_id):
    # the id does not sort with "b" and "c", so the level order is empty
    g = DecoratedGraph([Vertex(bad_id, "point", F(0)),
                        Vertex("b", "point", F(1)),
                        Vertex("c", "point", F(2))])
    assert validate_graph(g) == ["vertex %r: id is not a string" % (bad_id,)]
    with pytest.raises(ValidationError, match="id is not a string"):
        require_valid(g)


def test_unhashable_ids_are_refused_by_name():
    with pytest.raises(ValidationError,
                       match=r"vertex \['a'\]: id is not a string"):
        DecoratedGraph([Vertex(["a"], "point", F(0)),
                        Vertex("b", "point", F(1))])
    with pytest.raises(ValidationError,
                       match=r"edge \['a'\]--b: unknown endpoint"):
        DecoratedGraph([Vertex("a", "point", F(0)),
                        Vertex("b", "point", F(1))], [Edge(["a"], "b", 2)])


@pytest.mark.parametrize("area", ["1", 1.0, 1])
def test_area_that_is_not_a_fraction_is_reported(area):
    g = DecoratedGraph([Vertex("min", "surface", F(0), area=area, genus=0),
                        Vertex("max", "surface", F(1), area=F(3), genus=0)])
    assert validate_graph(g) == ["vertex min: area is not rational"]


@pytest.mark.parametrize("genus", [F(1, 2), True, 0.0])
def test_genus_that_is_not_an_int_is_reported(genus):
    g = DecoratedGraph([Vertex("min", "surface", F(0), area=F(3), genus=0),
                        Vertex("max", "surface", F(1), area=F(3),
                               genus=genus)])
    assert validate_graph(g) == ["vertex max: genus is not an integer"]


def test_single_surface_is_invalid():
    g = DecoratedGraph([Vertex("s", "surface", F(0), area=F(1), genus=0)])
    assert validate_graph(g)


def test_two_up_edges_rejected():
    g = DecoratedGraph(
        [Vertex("lo", "point", F(0)), Vertex("p", "point", F(1)),
         Vertex("a", "point", F(2)), Vertex("hi", "point", F(3))],
        [Edge("p", "a", 2), Edge("p", "hi", 3)])
    assert any("up edge" in msg for msg in validate_graph(g))


def test_isotropy_weights_s2s2():
    g = s2s2_graph()
    assert isotropy_weights(g, "b") == (-2, 1)
    assert isotropy_weights(g, "hi") == (-2, -1)
    assert isotropy_weights(g, "lo") == (1, 2)


def test_isotropy_weights_edgeless_min():
    assert isotropy_weights(tent_graph(), "lo") == (1, 1)


def test_isotropy_weights_surfaces():
    g = minimal_graph("ruled", 0, 0, 1, 1, 0)
    assert isotropy_weights(g, "min") == (0, 1)
    assert isotropy_weights(g, "max") == (-1, 0)


@pytest.mark.parametrize("vertices,problem", [
    ([Vertex("a", "point", 1), Vertex("b", "point", F(2))],
     "vertex a: moment is not rational"),
    ([Vertex("a", "point", F(0)), Vertex(1, "point", F(1)),
      Vertex("b", "point", F(2))],
     "vertex 1: id is not a string")])
def test_isotropy_weights_refuse_a_graph_without_level_order(vertices,
                                                             problem):
    # no level order to read the extrema off: the graph's own problems
    g = DecoratedGraph(vertices)
    assert g._order == ()
    with pytest.raises(ValidationError) as info:
        isotropy_weights(g, "a")
    assert str(info.value) == problem


def test_compare_basic():
    g = s2s2_graph()
    assert compare(g, "lo", "a") == "less"
    assert compare(g, "a", "b") == "incomparable"
    assert compare(g, "a", "a") == "equal"
    assert compare(g, "b", "lo") == "greater"


def test_compare_refuses_unknown_vertices():
    # a list id is not in g either: it must not fail on being unhashable,
    # here or in the blow-up functions that look a vertex up the same way;
    # isotropy_weights refuses it before and after g's weights are filled
    g = s2s2_graph()
    for bad, message in (("zz", "unknown vertex 'zz'"),
                         (["a"], "unknown vertex ['a']")):
        calls = [lambda: isotropy_weights(s2s2_graph(), bad),
                 lambda: compare(g, bad, "a"), lambda: compare(g, "a", bad),
                 lambda: compare(g, bad, bad),
                 lambda: site_for_vertex(g, bad),
                 lambda: blowup(g, bad, F(1, 2)),
                 lambda: max_size(g, BlowupSite(bad, "Interior")),
                 lambda: isotropy_weights(g, bad)]
        for call in calls:
            with pytest.raises(GraphError) as info:
                call()
            assert str(info.value) == message


def test_compare_is_strict_partial_order():
    for g in (s2s2_graph(), tent_graph()):
        ids = list(g.vertices)
        for v in ids:
            for w in ids:
                r = compare(g, v, w)
                back = compare(g, w, v)
                if r == "less":
                    assert back == "greater"
                if r == "incomparable":
                    assert back == "incomparable"
        # transitivity
        for u in ids:
            for v in ids:
                for w in ids:
                    if compare(g, u, v) == "less" and \
                            compare(g, v, w) == "less":
                        assert compare(g, u, w) == "less"


def test_canonical_form_id_invariance():
    g = s2s2_graph()
    base = canonical_form(g).text
    rng = random.Random(11)
    ids = list(g.vertices)
    for _ in range(100):
        perm = ids[:]
        rng.shuffle(perm)
        ren = dict(zip(ids, perm))
        h = DecoratedGraph(
            [Vertex(ren[v.id], v.kind, v.moment, v.area, v.genus)
             for v in g.vertices.values()],
            [Edge(ren[e.a], ren[e.b], e.k) for e in g.edges])
        assert canonical_form(h).text == base


def test_canonical_form_shift_mode():
    g = s2s2_graph()
    h = shift(g, 3)
    assert not is_isomorphic(g, h, "exact")
    assert is_isomorphic(g, h, "shift")


def test_shift_must_be_an_int_or_a_fraction():
    # a float, a string or a bool would be read as some other number
    g = s2s2_graph()
    for c, name in ((0.1, "float"), (float("inf"), "float"),
                    ("1/3", "str"), (True, "bool"), (None, "NoneType")):
        with pytest.raises(GraphError) as info:
            shift(g, c)
        assert str(info.value) == ("level shift must be an int or a "
                                   "Fraction, not " + name)
    # an int is the Fraction of the same value
    assert graph_to_json(shift(g, 3)) == graph_to_json(shift(g, F(3)))
    assert graph_to_json(shift(g, F(-5, 3))) == graph_to_json(
        shift(shift(g, -2), F(1, 3)))


def test_shift_label_past_the_digit_limit_names_it():
    # the shift label of a is 2 / ((10^2200 + 1)(10^2200 + 3)), whose
    # denominator has 4401 digits; its exact label still prints
    big = 10 ** 2200
    g = DecoratedGraph([Vertex("a", "point", F(1, big + 1)),
                        Vertex("b", "point", F(1, big + 3)),
                        Vertex("c", "point", F(5))])
    with pytest.raises(ValueError) as info:
        canonical_form(g, "shift")
    assert str(info.value) == ("a label has grown past the 4300 digits the "
                               "package can print")
    text = canonical_form(g, "exact").text
    assert text.splitlines()[-1] == "vertex 2 point|5|-|-"
    assert len(text) > 4400


def test_non_fraction_moments_keep_their_problem_lists():
    not_rational = "vertex %s: moment is not rational"
    same_level = "edge %s--%s: endpoints at the same level"
    ints = DecoratedGraph(
        [Vertex("lo", "point", 0), Vertex("a", "point", 1),
         Vertex("b", "point", 1), Vertex("hi", "point", 2)],
        [Edge("a", "b", 2), Edge("lo", "hi", 3)])
    floats = DecoratedGraph(
        [Vertex("lo", "point", F(0)), Vertex("a", "point", 0.5),
         Vertex("b", "point", 0.5), Vertex("c", "point", 1.0),
         Vertex("hi", "point", F(1))],
        [Edge("a", "b", 2), Edge("c", "hi", 3), Edge("lo", "a", 2)])
    strs = DecoratedGraph(
        [Vertex("lo", "point", "0"), Vertex("a", "point", "1/2"),
         Vertex("b", "point", "1/2"), Vertex("hi", "point", F(1)),
         Vertex("c", "point", "1")],
        [Edge("a", "b", 2), Edge("lo", "a", 3), Edge("c", "hi", 2)])
    assert validate_graph(ints) == [
        not_rational % v for v in ("lo", "a", "b", "hi")] + [
        same_level % ("a", "b")]
    # 0.5 == 0.5 and 1.0 == Fraction(1) are one level each
    assert validate_graph(floats) == [
        not_rational % v for v in ("a", "b", "c")] + [
        same_level % ("a", "b"), same_level % ("c", "hi")]
    assert validate_graph(strs) == [
        not_rational % v for v in ("lo", "a", "b", "c")] + [
        same_level % ("a", "b")]
    for g in (ints, floats, strs):
        assert (g._scale, g._y, g._order) == (None, None, ())
        for mode in ("exact", "shift"):
            if g is strs and mode == "shift":
                continue
            with pytest.raises(ValidationError) as info:
                canonical_form(g, mode)
            assert info.value.problems == validate_graph(g)
    assert [v["id"] for v in graph_to_json(floats)["vertices"]] == [
        "lo", "a", "b", "c", "hi"]
    with pytest.raises(TypeError):
        graph_to_json(strs)
    with pytest.raises(TypeError):
        canonical_form(strs, "shift")


def test_distinct_label_int_moments_list_as_given():
    g = DecoratedGraph(
        [Vertex("lo", "point", 0), Vertex("a", "point", 1),
         Vertex("hi", "point", 3)], [Edge("lo", "a", 2)])
    assert graph_to_json(g) == {
        "vertices": [{"id": "lo", "kind": "point", "moment": "0"},
                     {"id": "a", "kind": "point", "moment": "1"},
                     {"id": "hi", "kind": "point", "moment": "3"}],
        "edges": [{"a": "lo", "b": "a", "k": 2}]}
    text = ("vertex 0 point|0|-|-\nvertex 1 point|1|-|-\n"
            "vertex 2 point|3|-|-\nedge 0 1 k=2")
    digest = "21df1caab23bf83939f18de4aed9dcd27349e2300c76d109175e53c372c85315"
    for mode in ("exact", "shift"):
        form = canonical_form(g, mode)
        assert (form.digest, form.text) == (digest, text)
    # string moments sort and list as strings, but do not shift
    g = DecoratedGraph(
        [Vertex("lo", "point", "0"), Vertex("a", "point", "1/2"),
         Vertex("hi", "point", "1")], [Edge("lo", "a", 3)])
    assert [v["id"] for v in graph_to_json(g)["vertices"]] == [
        "lo", "hi", "a"]
    assert canonical_form(g, "exact").text == (
        "vertex 0 point|0|-|-\nvertex 1 point|1/2|-|-\n"
        "vertex 2 point|1|-|-\nedge 0 1 k=3")
    with pytest.raises(TypeError):
        canonical_form(g, "shift")


def test_different_graphs_differ():
    assert not is_isomorphic(s2s2_graph(), minimal_graph("cp2", 1, 1))


def test_polygon_graphs_iso_and_not():
    g1 = polygon_to_graph(TENT_POLYGONS[0])
    g2 = polygon_to_graph(TENT_POLYGONS[1])
    g3 = polygon_to_graph(TENT_POLYGONS[2])
    assert is_isomorphic(g1, g2)
    assert not is_isomorphic(g1, g3)
    assert sum(1 for e in g3.edges if e.k == 2) == 2


def test_flip_involution_and_asymmetry():
    g = minimal_graph("hirzebruch", "right", 2, r=2, s=1)
    assert is_isomorphic(flip(flip(g)), g)
    assert not is_isomorphic(g, flip(g), "shift")


def test_shift_identity_and_translation():
    g = s2s2_graph()
    assert is_isomorphic(shift(g, 0), g)
    moments = sorted(v.moment for v in shift(g, 3).vertices.values())
    assert moments == [0, 2, 4, 6]


def test_extend_tent_two_branches():
    ext = extend_graph(tent_graph())
    assert len(ext.branches) == 2
    assert sorted(ext.branches) == [["lo", "a", "hi"], ["lo", "b", "hi"]]
    assert ext.chains == _chains(tent_graph(), ext.free_edges)


def test_extend_impossible_three_on_a_level():
    # e_min = -3 and e_max = 0: valid, but each point needs its own chain
    g = DecoratedGraph(
        [Vertex("lo", "surface", F(0), area=F(10), genus=0),
         Vertex("p1", "point", F(1)), Vertex("p2", "point", F(1)),
         Vertex("p3", "point", F(1)),
         Vertex("hi", "surface", F(2), area=F(13), genus=0)])
    assert validate_graph(g) == []
    with pytest.raises(NoExtensionError):
        extend_graph(g)


def test_three_on_a_level_with_weighted_spheres_is_invalid():
    # the minimum has weights {1, 1}, but the labels give e_min = -41/24
    g = DecoratedGraph(
        [Vertex("lo", "point", F(0)),
         Vertex("p1", "point", F(1)), Vertex("p2", "point", F(1)),
         Vertex("p3", "point", F(1)),
         Vertex("q1", "point", F(3, 2)), Vertex("q2", "point", F(3, 2)),
         Vertex("hi", "point", F(2))],
        [Edge("q1", "hi", 2), Edge("q2", "hi", 3)])
    assert validate_graph(g)[0] == (
        "vertex lo: isolated extremum with weights {1, 1} has "
        "self-intersection -41/24, not -1")


def test_json_round_trip():
    for g in (s2s2_graph(), tent_graph(),
              minimal_graph("ruled", 2, 1, 1, 1, 0)):
        data = graph_to_json(g)
        assert is_isomorphic(graph_from_json(data), g)
        assert graph_to_json(graph_from_json(data)) == data


def sorted_graph_to_json(g):
    """The serialisation that sorted the vertices by (moment, id) itself."""
    vertices = []
    for v in sorted(g.vertices.values(), key=lambda v: (v.moment, v.id)):
        d = {"id": v.id, "kind": v.kind, "moment": str(v.moment)}
        if v.area is not None:
            d["area"] = str(v.area)
        if v.genus is not None:
            d["genus"] = v.genus
        vertices.append(d)
    edges = [{"a": e.a, "b": e.b, "k": e.k}
             for e in sorted(g.edges, key=lambda e: (sorted((e.a, e.b)), e.k))]
    return {"vertices": vertices, "edges": edges}


def test_level_order_and_json_match_sorted(enumerated_small):
    graphs = [rec.graph for rec in enumerated_small]
    graphs += [twin_chain(k) for k in (2, 5, 8)]
    # relabelled copies listed in reverse order, once with the ids numbered
    # forward and once backward, so that ids break ties at equal levels
    graphs += [relabel(g, "v") for g in graphs]
    graphs += [relabel(g, "w") for g in graphs[-len(graphs) // 2:]]
    ties = 0
    for g in graphs:
        order = sorted(g.vertices.values(), key=lambda v: (v.moment, v.id))
        assert list(g._order) == order
        assert graph_to_json(g) == sorted_graph_to_json(g)
        ties += len({v.moment for v in order}) < len(order)
    assert ties > 10


def test_json_of_empty_and_incomparable_graphs():
    empty = DecoratedGraph([])
    assert empty._order == ()
    assert graph_to_json(empty) == {"vertices": [], "edges": []}
    # the level order is empty when moments do not compare; serialising
    # then fails as sorting does, and drops no vertex
    g = DecoratedGraph([Vertex("a", "point", F(0)), Vertex("b", "point", "1")])
    assert g._order == ()
    with pytest.raises(TypeError):
        sorted_graph_to_json(g)
    with pytest.raises(TypeError):
        graph_to_json(g)


def fraction_extremal_pair(g):
    """(e_min, e_max) from Fraction sums, as graph_core once solved it."""
    lo, hi = g.min_vertex(), g.max_vertex()
    products = _interior_products(g)
    s0 = sum(Fraction(1, mn) for _, mn in products)
    s1 = sum(Fraction(y, mn) for y, mn in products)
    a_min = lo.area if lo.kind == "surface" else Fraction(0)
    a_max = hi.area if hi.kind == "surface" else Fraction(0)
    e_max = Fraction(a_max - a_min - s1 + lo.moment * s0,
                     hi.moment - lo.moment)
    return -s0 - e_max, e_max


def test_extremal_pair_matches_fraction_sums(enumerated):
    graphs = [rec.graph for rec in enumerated]
    graphs += [surface_chain(k, genus, n) for k in range(1, 9)
               for genus, n in ((0, 0), (1, 0), (0, 1))]
    for g in graphs + [flip(g) for g in graphs]:
        fresh = DecoratedGraph(g.vertices.values(), g.edges)
        got = _extremal_pair(fresh)
        assert all(type(e) is Fraction for e in got)
        assert got == fraction_extremal_pair(g), graph_to_json(g)
