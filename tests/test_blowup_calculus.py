import sys
from fractions import Fraction

import pytest

from hamgraphs import (GraphError, blowdown, blowup, blowup_sites,
                       blowup_symbolic, compare,
                       extremal_self_intersections, instantiate,
                       is_isomorphic, match_minimal_family, max_size,
                       minimal_graph, monotone_check, reduce_to_minimal,
                       toric_geometry, validate_graph)
from hamgraphs.blowup_calculus import (BlowupSite, blowdown_sites,
                                       site_for_vertex)
from conftest import chopped_square_graph, s2s2_graph, tent_graph
from test_carried_order_reference import (affine_model, least_root,
                                           pair_constraints)

F = Fraction


def test_site_tags():
    tags = {s.vertex: s.tag for s in blowup_sites(s2s2_graph())}
    assert tags["lo"] == "IsolatedMinDistinct"
    assert tags["hi"] == "IsolatedMaxDistinct"
    assert tags["a"] == tags["b"] == "Interior"
    assert {s.tag for s in blowup_sites(tent_graph())} == \
        {"IsolatedMin11", "IsolatedMax11", "Interior"}
    assert {s.tag for s in blowup_sites(minimal_graph("ruled", 0, 0, 1, 1,
                                                      0))} == \
        {"SurfaceMin", "SurfaceMax"}


def test_interior_blowup_s2s2():
    g = blowup(s2s2_graph(), "b", F(1, 2))
    moments = sorted(v.moment for v in g.vertices.values())
    assert moments == [-3, -1, 0, F(3, 2), 3]
    ks = sorted((tuple(sorted((g.moment(e.a), g.moment(e.b)))), e.k)
                for e in g.edges)
    assert ((0, F(3, 2)), 3) in ks          # the new chain edge
    assert ((-3, 0), 2) in ks               # the inherited down edge


def test_isolated11_blowup_tent():
    g = blowup(tent_graph(), "lo", F(1, 2))
    lo = g.min_vertex()
    assert (lo.kind, lo.moment, lo.area, lo.genus) == \
        ("surface", F(1, 2), F(1, 2), 0)


def test_surface_blowup_hirzebruch():
    g = minimal_graph("hirzebruch", "right", 2, r=2, s=1)
    h = blowup(g, g.min_vertex().id, F(1, 3))
    assert h.min_vertex().area == F(2, 3)
    assert any(v.kind == "point" and v.moment == F(1, 3)
               for v in h.vertices.values())


def test_monotone_check_bounds():
    g = minimal_graph("hirzebruch", "right", 2, r=2, s=1)
    interior = [v.id for v in g.vertices.values()
                if v.kind == "point" and not g.is_extremal(v.id)][0]
    sb = blowup_symbolic(g, site_for_vertex(g, interior))
    assert monotone_check(sb, F(3, 4))
    assert not monotone_check(sb, F(1))
    assert not monotone_check(sb, F(0))
    assert not monotone_check(sb, F(-1, 2))


def test_blowup_size_must_be_an_int_or_a_fraction():
    # a float, a string or a bool would be read as some other number
    g = minimal_graph("ruled", 0, 0, 3, 2)
    vid = g.min_vertex().id
    site = site_for_vertex(g, vid)
    sb = blowup_symbolic(g, site)
    for lam, name in ((0.1, "float"), (float("inf"), "float"),
                      ("1/2", "str"), (True, "bool"), (None, "NoneType")):
        for call in (lambda: blowup(g, vid, lam),
                     lambda: instantiate(sb, lam),
                     lambda: monotone_check(sb, lam)):
            with pytest.raises(GraphError) as info:
                call()
            assert str(info.value) == ("blow-up size must be an int or a "
                                       "Fraction, not " + name)
    # an int is the Fraction of the same value
    assert sb.sup == 2 and monotone_check(sb, 1) and not monotone_check(sb, 2)
    h, h_frac = blowup(g, vid, 1), blowup(g, vid, F(1))
    assert repr(list(h.vertices.values())) == \
        repr(list(h_frac.vertices.values()))
    assert h.edges == h_frac.edges and h._problems == h_frac._problems == ()


def test_max_size_hirzebruch():
    g = minimal_graph("hirzebruch", "right", 2, r=2, s=1)
    for site in blowup_sites(g):
        assert max_size(g, site) == 1


def test_max_size_interior_s2s2():
    g = s2s2_graph()
    assert max_size(g, site_for_vertex(g, "b")) == 2


def test_max_size_trivial_ruled():
    g = minimal_graph("ruled", 0, 0, 1, 1, 0)
    assert max_size(g, site_for_vertex(g, g.min_vertex().id)) == 1


def test_blowup_rejects_oversized():
    with pytest.raises(GraphError):
        blowup(s2s2_graph(), "b", F(2))
    with pytest.raises(GraphError):
        blowup(s2s2_graph(), "b", F(0))


def test_round_trip_small(enumerated_small):
    for rec in enumerated_small:
        if rec.depth > 1:
            continue
        g = rec.graph
        for site in blowup_sites(g):
            sup = max_size(g, site)
            for lam in (sup / 2, sup / 4):
                h = blowup(g, site.vertex, lam)
                assert validate_graph(h) == []
                candidates = [s for s in blowdown_sites(h)
                              if s.lam == lam]
                assert any(is_isomorphic(blowdown(h, s), g)
                           for s in candidates)


def test_carried_order_matches_compare(enumerated_small):
    # the bound of a symbolic blow-up is that of the partial order of the
    # graph it gives at any admissible size, with the area labels
    checked = 0
    for rec in enumerated_small:
        for site in blowup_sites(rec.graph):
            sb = blowup_symbolic(rec.graph, site)
            sup = max_size(rec.graph, site)
            h = instantiate(sb, sup / 2)
            less = {(a, b) for a in h.vertices for b in h.vertices
                    if compare(h, a, b) == "less"}
            model, _ = affine_model(sb)
            constraints = pair_constraints(model, less, equal_slopes=False)
            constraints += [area for _, _, area, _ in model.values()
                            if area is not None]
            assert sb.sup == least_root(constraints), (rec, site)
            checked += 1
    assert checked > 900


def test_blowup_order_independence():
    g = s2s2_graph()
    h1 = blowup(blowup(g, "a", F(1, 2)), "b", F(1, 2))
    h2 = blowup(blowup(g, "b", F(1, 2)), "a", F(1, 2))
    assert is_isomorphic(h1, h2)


def test_chopped_square_blowdown_options():
    g = chopped_square_graph()
    sites = blowdown_sites(g)
    assert sorted((s.lam, s.side) for s in sites if s.pattern == "B") == \
        [(2, "max"), (3, "min")]
    toward_max = blowdown(g, [s for s in sites if s.side == "max"][0])
    assert sorted(v.area for v in toward_max.surfaces()) == [6, 6]
    toward_min = blowdown(g, [s for s in sites if s.side == "min"][0])
    assert sorted(v.area for v in toward_min.surfaces()) == [4, 9]


def test_blowdown_refuses_unlisted_sites(enumerated_small):
    # a listed site with another size or side, and a site listed for
    # another graph on the same vertex ids, are not blow-down sites (a
    # point midway between two surfaces is a B site on either side, so
    # a side swap can be listed too)
    graphs = [rec.graph for rec in enumerated_small]
    patterns, n_foreign = set(), 0
    for g, other in zip(graphs, graphs[1:] + graphs[:1]):
        listed = blowdown_sites(g)
        patterns.update(site.pattern for site in listed)
        foreign = [site for site in blowdown_sites(other)
                   if site not in listed
                   and set(site.vertices) <= set(g.vertices)]
        n_foreign += len(foreign)
        wrong = foreign + [site._replace(lam=site.lam * 2) for site in listed]
        wrong += [site._replace(side=side) for site in listed
                  for side in ("", "min", "max") if side != site.side]
        for site in wrong:
            if site not in listed:
                with pytest.raises(GraphError, match="not a blow-down site"):
                    blowdown(g, site)
    assert patterns == set("ABCD") and n_foreign > 20


def test_blowdown_refuses_a_look_alike_site(enumerated_small):
    # a site is a named tuple, so a plain tuple with its fields equals it;
    # neither that nor a blow-up site at one of its vertices is a site
    patterns = set()
    for rec in enumerated_small:
        g = rec.graph
        for site in blowdown_sites(g):
            assert tuple(site) == site
            for fake in (tuple(site), BlowupSite(site.vertices[0], "Interior")):
                with pytest.raises(GraphError, match="not a blow-down site"):
                    blowdown(g, fake)
            patterns.add(site.pattern)
    assert patterns == set("ABCD")


# (family, parameters, sides with an exceptional fixed sphere): ruled(0, n)
# has e_min = -n and e_max = n, ruled(1, 1) has genus 1, and the fixed
# sphere of cp2-surface is a line, with e = +1
EXCEPTIONAL_SPHERES = [
    ("ruled", (0, 0), set()), ("ruled", (0, 1), {"min"}),
    ("ruled", (0, 2), set()), ("ruled", (1, 1), set()),
    ("cp2-surface", (), set()),
]


@pytest.mark.parametrize("family, params, sides", EXCEPTIONAL_SPHERES)
@pytest.mark.parametrize("flipped", [False, True])
def test_d_site_iff_exceptional_sphere(family, params, sides, flipped):
    # a fixed sphere blows down to a point exactly when it is exceptional:
    # genus 0 and self-intersection -1
    g = minimal_graph(family, *params, flipped=flipped)
    ext = extremal_self_intersections(g)
    exceptional = {side for side, v, e in (
        ("min", g.min_vertex(), ext.e_min), ("max", g.max_vertex(), ext.e_max))
        if v.kind == "surface" and v.genus == 0 and e == -1}
    if flipped:
        sides = {{"min": "max", "max": "min"}[side] for side in sides}
    assert exceptional == sides
    assert {s.side for s in blowdown_sites(g) if s.pattern == "D"} == sides


def test_tent_has_no_blowdown_sites():
    assert blowdown_sites(tent_graph()) == []


def test_reduce_chopped_square():
    minimal, steps = reduce_to_minimal(chopped_square_graph())
    assert len(steps) == 1 and steps[0].pattern == "B"
    assert match_minimal_family(minimal) == "ruled"


def test_reduce_blown_s2s2():
    # S2 x S2 is itself a one-fold blow-up of the projective plane, so
    # the blown-up graph unwinds all the way down in three steps
    g = blowup(blowup(s2s2_graph(), "a", F(1, 2)), "b", F(1, 2))
    minimal, steps = reduce_to_minimal(g)
    assert len(steps) == 3
    assert match_minimal_family(minimal) == "cp2"


def test_s2s2_already_minimal():
    minimal, steps = reduce_to_minimal(s2s2_graph())
    assert steps == []
    assert match_minimal_family(s2s2_graph()) is not None


def test_reduce_builds_no_polygon(enumerated, monkeypatch):
    # minimal models are recognised from the graph, so the search needs no
    # Delzant polygon; refuse one in every module that binds the builder
    original = toric_geometry.graph_to_polygon

    def refuse(g):
        raise AssertionError("reduce_to_minimal built a polygon")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "hamgraphs" and \
                getattr(module, "graph_to_polygon", None) is original:
            monkeypatch.setattr(module, "graph_to_polygon", refuse)
    for rec in enumerated:
        minimal, steps = reduce_to_minimal(rec.graph)
        assert len(steps) == rec.depth
        assert match_minimal_family(minimal) is not None


def test_symbolic_instantiate_matches_blowup():
    g = s2s2_graph()
    sb = blowup_symbolic(g, site_for_vertex(g, "a"))
    assert is_isomorphic(instantiate(sb, F(1, 3)), blowup(g, "a", F(1, 3)))


def test_blowup_model_is_derived_from_the_graph():
    g = s2s2_graph()
    right = blowup_symbolic(g, site_for_vertex(g, "b"))
    for wrong in ("SurfaceMin", "IsolatedMin11"):
        sb = blowup_symbolic(g, BlowupSite("b", wrong))
        assert affine_model(sb) == affine_model(right)
        assert sb.edges == right.edges
        assert sb.sup == right.sup
    with pytest.raises(GraphError, match="unknown vertex"):
        site_for_vertex(g, "nope")
