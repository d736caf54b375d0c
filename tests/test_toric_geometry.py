from fractions import Fraction

import pytest

from hamgraphs import (ChainError, DecoratedGraph, Edge, GraphError,
                       PolygonError,
                       ValidationError, Vertex, affine_normal_form,
                       classify_isolated, density, graph_from_json,
                       graph_to_json, graph_to_polygon, is_isomorphic,
                       minimal_graph, polygon_affine_equivalent,
                       polygon_chop, polygon_from_json, polygon_pushforward,
                       polygon_to_fan, polygon_to_graph, total_mass,
                       validate_delzant, validate_fan, validate_graph)
from hamgraphs import toric_geometry
from hamgraphs.toric_geometry import DelzantPolygon
from conftest import (CHOPPED_SHEARED, CHOPPED_SQUARE, P, PENTAGON,
                      PENTAGON_CHOPS, S2S2_POLYGONS, SHEARED, SQUARE_6x5,
                      TENT_POLYGONS, chopped_square_graph, s2s2_graph,
                      tent_graph, trapezoid, triangle)

F = Fraction


def test_validate_examples():
    assert validate_delzant(P((0, 0), (1, 0), (1, 1), (0, 1))) == []
    assert validate_delzant(triangle(3)) == []
    assert validate_delzant(triangle(F(7, 2))) == []
    assert validate_delzant(P((0, 0), (2, 1), (0, 1)))


def test_orientation_matters():
    assert validate_delzant(P((0, 0), (0, 1), (1, 1), (1, 0)))


def test_polygon_to_graph_unit_square():
    g = polygon_to_graph(P((0, 0), (1, 0), (1, 1), (0, 1)))
    assert len(g.surfaces()) == 2 and not g.edges
    areas = sorted(v.area for v in g.surfaces())
    assert areas == [1, 1]


def test_polygon_to_graph_s2s2():
    g = polygon_to_graph(S2S2_POLYGONS[0])
    expected = DecoratedGraph(
        [Vertex("lo", "point", F(0)), Vertex("a", "point", F(2)),
         Vertex("b", "point", F(4)), Vertex("hi", "point", F(6))],
        [Edge("lo", "b", 2), Edge("a", "hi", 2)])
    assert is_isomorphic(g, expected)
    assert is_isomorphic(g, s2s2_graph(), "shift")


def test_polygon_to_graph_hirzebruch_trapezoid():
    g = polygon_to_graph(trapezoid(1, 1, 1))
    assert not g.edges
    assert sorted(v.area for v in g.surfaces()) == [1, 2]


def test_graph_to_polygon_tent():
    Q = graph_to_polygon(tent_graph())
    assert polygon_affine_equivalent(Q, TENT_POLYGONS[0])


def test_graph_to_polygon_cp2():
    g = minimal_graph("cp2", 1, 1)
    Q = graph_to_polygon(g)
    assert validate_delzant(Q) == []
    assert len(Q.vertices) == 3
    assert total_mass(polygon_pushforward(Q)) == F(1, 2)


def test_width_matches_density_at_breakpoints():
    for g in (tent_graph(), s2s2_graph(), chopped_square_graph(),
              minimal_graph("cp2", 2, 3), minimal_graph("hirzebruch",
                                                        "right", 2)):
        Q = graph_to_polygon(g)
        assert polygon_pushforward(Q) == density(g)


def test_affine_equivalence():
    sheared = P(*[(x + y, y) for x, y in TENT_POLYGONS[0].vertices])
    assert polygon_affine_equivalent(TENT_POLYGONS[0], sheared)
    for Q1 in S2S2_POLYGONS:
        for Q2 in S2S2_POLYGONS:
            assert polygon_affine_equivalent(Q1, Q2)
    # the two ruled parents are inequivalent, yet chopping either one
    # produces the same pentagon (up to translation)
    assert not polygon_affine_equivalent(SQUARE_6x5, SHEARED)
    assert polygon_affine_equivalent(CHOPPED_SQUARE, CHOPPED_SHEARED)
    assert not polygon_affine_equivalent(TENT_POLYGONS[0], TENT_POLYGONS[1])


def test_normal_form_is_canonical():
    Q = affine_normal_form(S2S2_POLYGONS[1])
    assert affine_normal_form(Q) == Q


def test_chop_square_corner():
    Q = polygon_chop(P((0, 0), (1, 0), (1, 1), (0, 1)), 2, F(1, 2))
    assert len(Q.vertices) == 5
    assert validate_delzant(Q) == []


def test_chop_reproduces_reference_polygons():
    idx = SQUARE_6x5.vertices.index((F(0), F(5)))
    Q = polygon_chop(SQUARE_6x5, idx, 2)
    assert sorted(Q.vertices) == sorted(CHOPPED_SQUARE.vertices)
    idx = SHEARED.vertices.index((F(0), F(0)))
    Q = polygon_chop(SHEARED, idx, 3)
    assert sorted(Q.vertices) == sorted(CHOPPED_SHEARED.vertices)
    assert sorted(polygon_chop(PENTAGON, 0, 4).vertices) == \
        sorted(PENTAGON_CHOPS[0].vertices)
    assert sorted(polygon_chop(PENTAGON, 1, 4).vertices) == \
        sorted(PENTAGON_CHOPS[1].vertices)


def test_chop_too_large_rejected():
    with pytest.raises(PolygonError):
        polygon_chop(P((0, 0), (1, 0), (1, 1), (0, 1)), 0, 1)
    with pytest.raises(PolygonError):
        polygon_chop(P((0, 0), (1, 0), (1, 1), (0, 1)), 7, F(1, 2))


def test_chop_size_must_be_an_int_or_a_fraction():
    # a float, a string or a bool would be read as some other number
    for t, name in ((0.1, "float"), (float("nan"), "float"),
                    ("1/3", "str"), (True, "bool"), (None, "NoneType")):
        with pytest.raises(GraphError) as info:
            polygon_chop(PENTAGON, 0, t)
        assert str(info.value) == ("chop size must be an int or a "
                                   "Fraction, not " + name)
    # an int is the Fraction of the same value
    assert polygon_chop(PENTAGON, 0, 4) == polygon_chop(PENTAGON, 0, F(4))


def test_polygon_coordinates_must_be_ints_or_fractions():
    # Fraction(0.1) is a binary fraction near 1/10, and "1" and True
    # would be read as 1
    for bad, name in ((0.1, "float"), ("1", "str"), (True, "bool")):
        for corner in ((bad, 0), (0, bad)):
            with pytest.raises(GraphError) as info:
                DelzantPolygon([corner, (1, 0), (1, 1), (0, 1)])
            assert str(info.value) == ("polygon coordinate must be an int "
                                       "or a Fraction, not " + name)
    # an int is the Fraction of the same value
    square = DelzantPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert square == P((0, 0), (1, 0), (1, 1), (0, 1))
    assert all(type(c) is F for point in square.vertices for c in point)


def test_chop_commutes_with_blowup(corpus_polygons):
    """Chopping a corner then reading the graph agrees with blowing up
    the graph vertex at that corner's height."""
    from hamgraphs import blowup
    cases = 0
    for Q in corpus_polygons:
        heights = [y for _, y in Q.vertices]
        for i, (x, y) in enumerate(Q.vertices):
            if heights.count(y) != 1:
                continue
            g = polygon_to_graph(Q)
            target = [v.id for v in g.vertices.values()
                      if v.kind == "point" and v.moment == y]
            if len(target) != 1:
                continue
            try:
                chopped = polygon_chop(Q, i, F(1, 5))
            except PolygonError:
                continue
            blown = blowup(g, target[0], F(1, 5))
            assert is_isomorphic(polygon_to_graph(chopped), blown)
            cases += 1
    assert cases >= 50


def test_round_trip_corpus(corpus_polygons):
    skipped = 0
    for Q in corpus_polygons:
        g = polygon_to_graph(Q)
        try:
            back = graph_to_polygon(g)
        except Exception:
            skipped += 1
            continue
        assert polygon_pushforward(back) == density(g)
        assert is_isomorphic(polygon_to_graph(back), g)
    assert skipped == 0


def test_polygon_to_fan():
    fan = polygon_to_fan(P((0, 0), (1, 0), (1, 1), (0, 1)))
    assert validate_fan(fan) == []
    assert set(fan) == {(0, 1), (-1, 0), (0, -1), (1, 0)}


def test_polygon_json_round_trip():
    for Q in (TENT_POLYGONS[2], S2S2_POLYGONS[0], CHOPPED_SQUARE):
        assert polygon_from_json(Q.to_json()) == Q


def test_polygons_validated_once_and_built_ones_marked(monkeypatch):
    from hamgraphs import toric_geometry
    from hamgraphs.toric_geometry import require_valid_polygon
    real = toric_geometry.validate_delzant
    calls = []

    def counting(Q):
        calls.append(Q)
        return real(Q)

    monkeypatch.setattr(toric_geometry, "validate_delzant", counting)
    # a polygon read from JSON is validated once
    Q = polygon_from_json(CHOPPED_SQUARE.to_json())
    for _ in range(3):
        assert require_valid_polygon(Q) is Q
    assert calls == [Q]
    # a non-Delzant one is refused on every call, from the kept problems
    bad = polygon_from_json({"vertices": [[0, 0], [2, 1], [0, 1]]})
    for _ in range(3):
        with pytest.raises(PolygonError, match="normal determinant"):
            require_valid_polygon(bad)
    assert calls == [Q, bad]
    # results built by construction are marked valid, not validated
    built = [graph_to_polygon(tent_graph()), polygon_chop(Q, 3, 1),
             affine_normal_form(Q)]
    for R in built:
        assert require_valid_polygon(R) is R and R._problems == ()
    assert calls == [Q, bad]
    # validate_delzant recomputes on every call, whatever the mark says
    for R in built:
        assert real(R) == []
    bad._problems = ()
    assert real(bad) == ["normal determinant != 1 at vertex 0"]


def isolated_graphs():
    return [tent_graph(), s2s2_graph(), minimal_graph("cp2", 1, 2),
            minimal_graph("hirzebruch", "left", 1, 1, 2)]


def test_polygon_is_built_once_and_kept_on_the_graph():
    for g in isolated_graphs() + [chopped_square_graph()]:
        Q = graph_to_polygon(g)
        assert graph_to_polygon(g) is Q and g._polygon is Q
        assert validate_delzant(Q) == []


def test_classify_reuses_the_kept_polygon():
    for g in isolated_graphs():
        fresh = graph_from_json(graph_to_json(g))
        built = graph_from_json(graph_to_json(g))
        Q = graph_to_polygon(built)
        assert classify_isolated(built) == classify_isolated(fresh)
        assert built._polygon is Q
        assert graph_to_polygon(fresh) is fresh._polygon


def refused_graphs():
    """Valid graphs that graph_to_polygon refuses, with the refusal."""
    three_on_a_level = DecoratedGraph(
        [Vertex("lo", "surface", F(0), area=F(10), genus=0),
         Vertex("p1", "point", F(1)), Vertex("p2", "point", F(1)),
         Vertex("p3", "point", F(1)),
         Vertex("hi", "surface", F(2), area=F(13), genus=0)])
    return [(minimal_graph("ruled", 2, 1, 1, 1, 0), "positive genus"),
            (three_on_a_level, "no arrangement of free spheres")]


def test_chain_without_normals_is_invalid():
    # weights 3 along mn-mx and p-q: the chain [1, 3, 1], which has no
    # integral normals, comes from no space, since the sphere mn-mx has
    # S.S = (m_mn - m_mx)/3 = 2/3
    no_normals = DecoratedGraph(
        [Vertex("mn", "point", F(0)), Vertex("p", "point", F(1, 2)),
         Vertex("q", "point", F(1)), Vertex("mx", "point", F(3, 2))],
        [Edge("mn", "mx", 3), Edge("p", "q", 3)])
    assert validate_graph(no_normals)[0] == (
        "edge mn--mx: sphere of weight 3 has non-integer self-intersection "
        "2/3")
    with pytest.raises(ValidationError):
        graph_to_polygon(no_normals)


def test_polygon_refusals_past_validation_are_internal_failures(
        monkeypatch):
    # every division by a weight is exact on a valid graph
    # (graph_to_polygon's docstring), so a refusal there names a fault of
    # the library
    def no_normals(ks, b1):
        raise ChainError("chain %r admits no integral normals with the "
                         "forced seed" % (ks,))

    monkeypatch.setattr(toric_geometry, "_normals", no_normals)
    with pytest.raises(GraphError, match="^internal failure: chain "):
        graph_to_polygon(minimal_graph("cp2", 1, 2))
    monkeypatch.undo()
    # a seed b1 = 0 leaves the bottom corner of weights 3, 2 no normals
    monkeypatch.setattr(toric_geometry, "_seed", lambda k1, k2: 0)
    with pytest.raises(GraphError, match="^internal failure: bottom corner "
                       "is not smooth: weights 3, 2"):
        graph_to_polygon(minimal_graph("cp2", 1, 2))


def test_refused_graph_is_refused_on_every_call():
    for g, message in refused_graphs():
        assert validate_graph(g) == []
        for _ in range(2):
            with pytest.raises(GraphError, match=message):
                graph_to_polygon(g)
            assert g._polygon is None
