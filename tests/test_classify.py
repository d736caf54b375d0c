import inspect
import time
from fractions import Fraction

import pytest

from hamgraphs import (GraphError, affine_normal_form, assign_labels,
                       canonical_form, classify_isolated, density,
                       enumerate_graphs, graph_to_json, is_isomorphic,
                       is_toric_extendable, match_minimal_family,
                       minimal_graph, polygon_pushforward, reduce_to_minimal,
                       validate_graph)
from hamgraphs.classify import _FAMILIES
from hamgraphs.cli import run
from hamgraphs.toric_geometry import DelzantPolygon
from conftest import (P, S2S2_POLYGONS, chopped_square_graph, s2s2_graph,
                      tent_graph, triangle)

F = Fraction


def test_cp2_graph_structure():
    g = minimal_graph("cp2", 1, 2)
    assert sorted(v.moment for v in g.vertices.values()) == [-2, 0, 1]
    assert sorted(e.k for e in g.edges) == [2, 3]
    assert validate_graph(g) == []


def test_cp2_rejects_bad_weights():
    with pytest.raises(GraphError):
        minimal_graph("cp2", 2, 4)
    with pytest.raises(GraphError):
        minimal_graph("cp2", 0, 1)


def test_seed_parameters_must_be_integers():
    with pytest.raises(GraphError, match="m = 3/2 is not an integer"):
        minimal_graph("cp2", F(3, 2), 2)
    with pytest.raises(GraphError, match="genus = 1/2 is not an integer"):
        minimal_graph("ruled", F(1, 2), 1)
    assert graph_to_json(minimal_graph("cp2", F(1), 2.0)) == \
        graph_to_json(minimal_graph("cp2", 1, 2))
    # strings are read by parse_rat and named as parsed
    with pytest.raises(GraphError, match="m = 3/2 is not an integer"):
        minimal_graph("cp2", "1.5", "2")
    with pytest.raises(GraphError, match="n = x is not an integer"):
        minimal_graph("cp2", "1", "x")
    assert graph_to_json(minimal_graph("cp2", "1", "4/2")) == \
        graph_to_json(minimal_graph("cp2", 1, 2))


def test_seed_rationals_are_parsed_and_named():
    start = time.perf_counter()
    with pytest.raises(GraphError,
                       match="alpha = 1e9999999 is not a rational"):
        minimal_graph("cp2", 1, 1, "1e9999999")
    with pytest.raises(GraphError, match="r = 1e5000 is not a rational"):
        minimal_graph("hirzebruch", "left", 1, 1, 1, "1e5000")
    with pytest.raises(GraphError, match="s = 1/0 is not a rational"):
        minimal_graph("ruled", 0, 0, 1, "1/0")
    with pytest.raises(GraphError, match="alpha = nan is not a rational"):
        minimal_graph("cp2-surface", float("nan"))
    with pytest.raises(GraphError, match="a_min = 1e9999 is not a rational"):
        assign_labels(CHOPPED_SKELETON, CHOPPED_MOMENTS, "1e9999", 4, (0, -1))
    assert time.perf_counter() - start < 5
    assert graph_to_json(minimal_graph("cp2", 1, 1, "-1/2", " 3 ")) == \
        graph_to_json(minimal_graph("cp2", 1, 1, F(-1, 2), 3))


def test_ruled_graph_genus_one():
    g = minimal_graph("ruled", 1, 2, 3, 1, 0)
    lo, hi = g.min_vertex(), g.max_vertex()
    assert (lo.area, lo.genus) == (3, 1)
    assert (hi.area, hi.genus) == (5, 1)
    assert not g.edges


def test_ruled_rejects_nonpositive_top_area():
    with pytest.raises(GraphError):
        minimal_graph("ruled", 0, -3, 1, 1, 0)


def test_cp2_surface_graph():
    g = minimal_graph("cp2-surface", 0, 2)
    assert g.min_vertex().kind == "surface"
    assert g.min_vertex().area == 2
    assert g.max_vertex().moment == 2


def test_flipped_variant():
    g = minimal_graph("cp2-surface", 0, 1, flipped=True)
    assert g.max_vertex().kind == "surface"


def test_match_minimal_families():
    assert match_minimal_family(minimal_graph("cp2", 2, 3)) == "cp2"
    assert match_minimal_family(minimal_graph("cp2-surface")) == "cp2-surface"
    assert match_minimal_family(
        minimal_graph("hirzebruch", "right", 2, r=2, s=1)) == "hirzebruch"
    assert match_minimal_family(minimal_graph("ruled", 1, 1, 1, 1)) == "ruled"
    assert match_minimal_family(s2s2_graph()) is not None
    assert match_minimal_family(chopped_square_graph()) is None
    assert match_minimal_family(tent_graph()) is not None


@pytest.mark.parametrize("args, family, patterns", [
    (("left", 0), "hirzebruch", []),
    (("left", 2), "hirzebruch", []),
    (("left", 3, 2, 1), "hirzebruch", []),
    # n = 1 is the projective plane blown up at its minimum
    (("left", 1), None, ["C"]),
    (("left", 1, 1, 2), None, ["C"]),
])
def test_hirzebruch_minimality(args, family, patterns):
    g = minimal_graph("hirzebruch", *args)
    assert match_minimal_family(g) == family
    minimal, steps = reduce_to_minimal(g)
    assert [s.pattern for s in steps] == patterns
    assert match_minimal_family(minimal) == (family or "cp2")


def test_is_toric_extendable():
    assert is_toric_extendable(tent_graph())
    assert is_toric_extendable(s2s2_graph())
    assert not is_toric_extendable(minimal_graph("ruled", 1, 0, 1, 1))


def test_toric_extendable_on_corpus(enumerated_small):
    for rec in enumerated_small:
        if all(v.kind == "point" for v in rec.graph.vertices.values()):
            assert is_toric_extendable(rec.graph)


def test_classify_isolated_cp2():
    # heights are part of the data, so the normal form keeps the moment
    # levels -1, 0, 1 of the graph
    g = minimal_graph("cp2", 1, 1)
    Q = classify_isolated(g)
    assert Q == affine_normal_form(P((0, 0), (1, -1), (0, 1)))
    assert polygon_pushforward(Q) == density(g)


def test_classify_isolated_s2s2():
    Q = classify_isolated(s2s2_graph())
    shifted = DelzantPolygon([(x, y - 3)
                              for x, y in S2S2_POLYGONS[0].vertices])
    assert Q == affine_normal_form(shifted)


def test_classify_isolated_rejects_surfaces():
    with pytest.raises(GraphError):
        classify_isolated(chopped_square_graph())


def test_enumerate_depth_zero():
    out = enumerate_graphs([("r", minimal_graph("ruled", 0, 0, 1, 1))], 0)
    assert len(out) == 1 and out[0].depth == 0


def test_enumerate_cp2_depth_one():
    out = enumerate_graphs([("c", minimal_graph("cp2", 1, 1))], 1)
    by_depth = [rec for rec in out if rec.depth == 1]
    # three isolated fixed points, three distinct children under the
    # half-supremum size rule
    assert len(by_depth) == 3
    for rec in out:
        assert validate_graph(rec.graph) == []


def test_enumerate_is_deterministic():
    seeds = [("c", minimal_graph("cp2", 1, 2)),
             ("r", minimal_graph("ruled", 0, 1, 1, 1))]
    a = enumerate_graphs(seeds, 2)
    b = enumerate_graphs(seeds, 2)
    assert [canonical_form(r.graph).digest for r in a] == \
        [canonical_form(r.graph).digest for r in b]


def test_enumerate_dedups_isomorphic_children(enumerated_small):
    digests = [canonical_form(rec.graph).digest for rec in enumerated_small]
    assert digests == [rec.digest for rec in enumerated_small]
    assert len(digests) == len(set(digests))


CHOPPED_SKELETON = {
    "vertices": [{"id": "lo", "kind": "surface"},
                 {"id": "p", "kind": "point"},
                 {"id": "hi", "kind": "surface"}],
    "edges": [],
}
CHOPPED_MOMENTS = {"lo": 0, "p": 3, "hi": 5}


def test_assign_labels_chopped_square():
    g = assign_labels(CHOPPED_SKELETON, CHOPPED_MOMENTS, 6, 4, (0, -1))
    assert is_isomorphic(g, chopped_square_graph())


def test_assign_labels_rejects_wrong_e_choice():
    with pytest.raises(GraphError):
        assign_labels(CHOPPED_SKELETON, CHOPPED_MOMENTS, 6, 4, (-1, 0))
    with pytest.raises(GraphError):
        assign_labels(CHOPPED_SKELETON, CHOPPED_MOMENTS, 6, 4, (0, 0))


def test_assign_labels_rejects_malformed_skeleton():
    fractional_genus = {"vertices": [dict(CHOPPED_SKELETON["vertices"][0],
                                          genus=0.7)]
                        + CHOPPED_SKELETON["vertices"][1:], "edges": []}
    with pytest.raises(GraphError, match="malformed skeleton.*genus"):
        assign_labels(fractional_genus, CHOPPED_MOMENTS, 6, 4, (0, -1))
    integer_id = {"vertices": CHOPPED_SKELETON["vertices"][:2]
                  + [{"id": 1, "kind": "surface"}], "edges": []}
    with pytest.raises(GraphError, match="malformed skeleton.*id"):
        assign_labels(integer_id, dict(CHOPPED_MOMENTS, **{"1": 5}), 6, 4,
                      (0, -1))


def test_assign_labels_trivial_ruled():
    skel = {"vertices": [{"id": "lo", "kind": "surface"},
                         {"id": "hi", "kind": "surface"}]}
    g = assign_labels(skel, {"lo": 0, "hi": 1}, 3, 3, (0, 0))
    assert is_isomorphic(g, minimal_graph("ruled", 0, 0, 3, 1))
    with pytest.raises(GraphError):
        assign_labels(skel, {"lo": 0, "hi": 1}, 3, 2, (0, 0))


# a valid value for each parameter of each family, in signature order
_ARITY_VALUES = {"cp2": (1, 2, 0, 1), "cp2-surface": (0, 1),
                 "hirzebruch": ("left", 1, 1, 1, 1, 1, 0),
                 "ruled": (0, 0, 1, 1, 0)}


def _arity_cases():
    """Each family with 0 to n+1 positional arguments, n its parameter
    count, and no keyword, an unknown one, one that repeats the first
    positional, the last parameter, the missing required ones, or all
    the rest."""
    for family, values in _ARITY_VALUES.items():
        params = inspect.signature(_FAMILIES[family]).parameters.values()
        names = [p.name for p in params]
        required = sum(p.default is p.empty for p in params)
        for npos in range(len(names) + 2):
            keywords = [{}, {"bogus": 1}, {names[0]: values[0]},
                        {names[-1]: values[-1]},
                        dict(zip(names[npos:required], values[npos:required])),
                        dict(zip(names[npos:], values[npos:]))]
            for kw in keywords:
                yield family, (values + (0,))[:npos], kw


def _bind_message(family, args, kw):
    """The message minimal_graph gives when inspect's bind refuses the
    call, or None when it binds."""
    sig = inspect.signature(_FAMILIES[family])
    try:
        sig.bind(*args, **kw)
    except TypeError:
        params = sig.parameters.values()
        return "%s takes %d to %d parameters (%s), not %d" % (
            family, sum(p.default is p.empty for p in params), len(params),
            ", ".join(p.name for p in params), len(args) + len(kw))
    return None


def test_minimal_graph_arity_matches_signature_bind(capsys):
    cases = list(_arity_cases())
    refused = 0
    for family, args, kw in cases:
        expected = _bind_message(family, args, kw)
        if expected is None:
            assert validate_graph(minimal_graph(family, *args, **kw)) == []
            continue
        refused += 1
        with pytest.raises(GraphError) as info:
            minimal_graph(family, *args, **kw)
        assert str(info.value) == expected, (family, args, kw)
    assert len(cases) == 156 and refused > 50
    assert run(["enumerate", "--seed", "cp2:1", "--max-blowups", "0"]) == 2
    assert "cp2 takes 2 to 4 parameters (m, n, alpha, beta), not 1" \
        in capsys.readouterr().err
