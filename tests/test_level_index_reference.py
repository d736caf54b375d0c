"""The integer level index against the Fraction arithmetic it replaced.

A ``DecoratedGraph`` whose moments are all ``Fraction`` values keeps its
levels as integers over one denominator: ``_scale`` is the least common
multiple of the moment denominators and ``_y[vid]`` the moment times
``_scale``.  The density sweep, the sides of ``graph_to_polygon``, the
class values, the ``shift`` labels of ``canonical_form``, the blow-down
site searches and the memo key of ``reduce_to_minimal`` run on it.
The references below keep the ``Fraction`` forms, on graphs whose levels
have large and distinct denominators: a surface blown up at 1/p for the
first 25 primes p, and the small enumeration corpus shifted by rationals
over large prime powers, with the flips of all of them.  A plain
construction of the index itself checks the one ``DecoratedGraph`` builds,
on those graphs, on the depth-3 corpus and on malformed inputs.
"""

from fractions import Fraction
from math import lcm

import pytest

from hamgraphs import (DecoratedGraph, Edge, GraphError, ValidationError,
                       Vertex, blowup, canonical_form, class_values,
                       density, extend_graph, extremal_self_intersections,
                       flip, graph_from_json, graph_to_json,
                       graph_to_polygon, intersection_matrix,
                       isotropy_weights, minimal_graph, polygon_pushforward,
                       shift, validate_graph)
from hamgraphs.blowup_calculus import BlowdownSite, _ordered_sites, _state
from hamgraphs.chain_arith import _normals
from hamgraphs.toric_geometry import _seed_pair
from test_canonical_reference import reference_canonical_form
from test_dh_measure import reference_density
from test_polygon_reference import CHOP_DENOMINATORS

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
          61, 67, 71, 73, 79, 83, 89, 97)


def prime_chain():
    """ruled(0, 0, 100, 10) with its minimum surface blown up at 1/p for
    each prime p in PRIMES, the largest size first."""
    g = minimal_graph("ruled", 0, 0, 100, 10)
    for p in PRIMES:
        g = blowup(g, g.min_vertex().id, Fraction(1, p))
    return g


def fraction_polygon_vertices(g):
    """The vertices of graph_to_polygon(g), with the sides walked in
    Fraction arithmetic as _build_polygon once walked them."""
    lo, hi = g.min_vertex(), g.max_vertex()
    chains = list(extend_graph(g).chains)
    while len(chains) < 2:
        chains.append(((lo.id, hi.id, 1),))
    right, left = chains
    ks_r = [k for _, _, k in right]
    ks_l = [k for _, _, k in left]
    a_min = lo.area if lo.kind == "surface" else Fraction(0)
    if lo.kind == "surface":
        b1, b1p = 0, int(extremal_self_intersections(g).e_min)
    else:
        k2_right = ks_r[1] if len(ks_r) > 1 else None
        b1, b1p = _seed_pair(ks_r[0], ks_l[0], k2_right)
    bs_r = _normals(ks_r, b1)
    bs_l = _normals(ks_l, b1p)

    def side_points(chain, bs, x0, sign):
        pts = [(x0, lo.moment)]
        x = x0
        for (low, high, k), b in zip(chain, bs):
            x = x + sign * Fraction(b, k) * (g.moment(high) - g.moment(low))
            pts.append((x, g.moment(high)))
        return pts

    verts = side_points(right, bs_r, Fraction(0), -1)
    back = list(reversed(side_points(left, bs_l, -a_min, +1)))
    if hi.kind == "point":
        back = back[1:]
    if lo.kind == "point":
        back = back[:-1]
    return verts + back


def fraction_class_values(g):
    """class_values(g) as the Fraction differences of the moments."""
    surfaces = sorted((v for v in g.vertices.values()
                       if v.kind == "surface"), key=lambda v: v.moment)
    lo, hi = surfaces
    vals = {"Bmin": lo.area, "Bmax": hi.area, "F": hi.moment - lo.moment}
    for ci, chain in enumerate(intersection_matrix(g).chains, start=1):
        for i, s in enumerate(chain, start=1):
            vals["E:%d:%d" % (ci, i)] = Fraction(
                g.moment(s.north) - g.moment(s.south), s.k)
    return vals


@pytest.fixture(scope="module")
def indexed_graphs(enumerated_small):
    """The 418 graphs: the prime chain and the shifted small corpus, with
    their flips."""
    graphs = [prime_chain()]
    graphs += [shift(rec.graph, Fraction(2 * i + 1,
                                         CHOP_DENOMINATORS[i % 5]))
               for i, rec in enumerate(enumerated_small)]
    return graphs + [flip(g) for g in graphs]


@pytest.fixture(scope="module")
def corpus_and_flips(enumerated):
    graphs = [rec.graph for rec in enumerated]
    return graphs + [flip(g) for g in graphs]


def test_prime_chain_is_valid_and_its_polygon_has_its_density():
    g = prime_chain()
    assert len(g.vertices) == 27
    assert validate_graph(g) == []
    assert polygon_pushforward(graph_to_polygon(g)) == density(g)
    assert g._scale % (2 * 3 * 5 * 7 * 97) == 0


def test_index_matches_fraction_arithmetic(indexed_graphs):
    polygons = two_surface = 0
    for g in indexed_graphs:
        for vid, v in g.vertices.items():
            assert Fraction(g._y[vid], g._scale) == v.moment
        assert density(g) == reference_density(g), g
        form = canonical_form(g, "shift")
        assert (form.digest, form.text) == \
            reference_canonical_form(g, "shift"), g
        try:
            P = graph_to_polygon(g)
        except GraphError:
            pass
        else:
            assert list(P.vertices) == fraction_polygon_vertices(g), g
            polygons += 1
        if [v.kind for v in (g.min_vertex(), g.max_vertex())] == \
                ["surface", "surface"]:
            assert class_values(g) == fraction_class_values(g), g
            two_surface += 1
    assert max(g._scale for g in indexed_graphs) > 10 ** 30
    assert polygons > 400 and two_surface > 60


# -- the index itself ---------------------------------------------------------

def reference_index(vertices, edges):
    """The fields DecoratedGraph(vertices, edges) indexes, built plainly:
    one scan of the edges per vertex, levels as Fractions times _scale,
    and the level order sorted on (moment, id), empty when there is no
    index or the ids do not compare.  Raises the ValidationError that
    construction raises."""
    by_id = {}
    for v in vertices:
        try:
            hash(v.id)
        except TypeError:
            raise ValidationError(["vertex %r: id is not a string"
                                   % (v.id,)]) from None
        if v.id in by_id:
            raise ValidationError(["duplicate vertex id %r" % v.id])
        by_id[v.id] = v
    edges = tuple(edges)
    for e in edges:
        try:
            hash(e.a), hash(e.b)
        except TypeError:
            raise ValidationError(["edge %s--%s: unknown endpoint"
                                   % (e.a, e.b)]) from None
    at = {vid: tuple(e for e in edges if vid in (e.a, e.b))
          for vid in by_id}
    scale = y = None
    up = {vid: () for vid in by_id}
    down = dict(up)
    order = ()
    if all(isinstance(v.moment, Fraction) for v in by_id.values()):
        scale = lcm(*(v.moment.denominator for v in by_id.values()))
        y = {vid: int(v.moment * scale) for vid, v in by_id.items()}

        def other(e, vid):
            return e.b if e.a == vid else e.a

        up = {vid: tuple(e for e in es if other(e, vid) in by_id
                         and by_id[other(e, vid)].moment > by_id[vid].moment)
              for vid, es in at.items()}
        down = {vid: tuple(e for e in es if other(e, vid) in by_id
                           and by_id[other(e, vid)].moment
                           < by_id[vid].moment)
                for vid, es in at.items()}
        try:
            sorted(by_id)
        except TypeError:
            pass
        else:
            order = tuple(sorted(by_id.values(),
                                 key=lambda v: (v.moment, v.id)))
    return {"vertices": by_id, "_at": at, "_up": up, "_down": down,
            "_order": order, "_interior": tuple(v.id for v in order[1:-1]),
            "_scale": scale, "_y": y}


def built_index(vertices, edges):
    g = DecoratedGraph(vertices, edges)
    fields = {name: getattr(g, name) for name in
              ("_at", "_up", "_down", "_order", "_interior", "_scale", "_y")}
    return dict(fields, vertices=dict(g.vertices))


def assert_same_index(vertices, edges):
    try:
        want = reference_index(vertices, edges)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            DecoratedGraph(vertices, edges)
        assert got.value.problems == exc.problems
        return None
    got = built_index(vertices, edges)
    assert got == want
    # the same order of keys too, so the edge lists come out alike
    for name in ("_at", "_up", "_down"):
        assert list(got[name]) == list(want[name])
    return got


def test_index_matches_reference_on_corpora(indexed_graphs,
                                            corpus_and_flips):
    for g in indexed_graphs + corpus_and_flips:
        for vertices in (list(g.vertices.values()),
                         list(g.vertices.values())[::-1]):
            assert_same_index(vertices, g.edges)


F = Fraction
LO = Vertex("lo", "point", F(0))
P1 = Vertex("p", "point", F(1, 3))
Q1 = Vertex("q", "point", F(2, 5))
HI = Vertex("hi", "point", F(1))


MALFORMED = [
    ([LO, P1, HI], [Edge("p", "p", 2)]),                     # self-loop
    ([LO, P1, HI], [Edge("p", "nowhere", 2), Edge("nowhere", "hi", 3)]),
    ([LO, P1, Q1, HI], [Edge("p", "q", 2), Edge("q", "p", 2)]),  # twice
    ([LO, P1, Q1, HI], [Edge("p", "q", 2), Edge("lo", "hi", 3),
                        Edge("q", "hi", 5), Edge("lo", "q", 2)]),
    ([LO, Vertex("p", "point", 1), HI], [Edge("lo", "p", 2)]),    # int
    ([LO, Vertex("p", "point", 0.5), HI], [Edge("p", "hi", 2)]),  # float
    ([LO, Vertex("p", "point", "1/2"), HI], [Edge("p", "hi", 2)]),  # str
    ([LO, Vertex(1, "point", F(1, 2)), HI],                  # no order
     [Edge(1, "hi", 2), Edge("lo", 1, 3)]),
    ([LO, Vertex(None, "point", F(1, 2)), Vertex(1, "point", F(1, 2)), HI],
     [Edge(None, 1, 2)]),
    ([LO, Vertex(["p"], "point", F(1, 2)), HI], []),         # unhashable
    ([LO, P1, HI], [Edge(["p"], "hi", 2)]),
    ([LO, P1, HI], [Edge("p", {"hi": 1}, 2)]),
    ([LO, P1, P1, HI], []),                                  # duplicate id
    ([], [Edge("a", "b", 2)]),
]


@pytest.mark.parametrize("vertices,edges", MALFORMED)
def test_index_matches_reference_on_malformed_graphs(vertices, edges):
    assert_same_index(vertices, edges)


def test_index_of_malformed_graphs_is_as_documented():
    # no index for a moment that is not a Fraction, and no level order
    # for ids that do not compare; the edges are indexed all the same
    got = assert_same_index([LO, Vertex("p", "point", 1), HI],
                            [Edge("lo", "p", 2)])
    assert got["_scale"] is got["_y"] is None and got["_order"] == ()
    assert got["_at"]["p"] == (Edge("lo", "p", 2),)
    got = assert_same_index([LO, Vertex(1, "point", F(1, 2)), HI],
                            [Edge(1, "hi", 2)])
    assert got["_scale"] == 2 and got["_order"] == ()
    assert got["_up"][1] == got["_down"]["hi"] == (Edge(1, "hi", 2),)
    got = assert_same_index([LO, P1, HI], [Edge("p", "p", 2)])
    assert got["_at"]["p"] == (Edge("p", "p", 2),)
    assert got["_up"]["p"] == got["_down"]["p"] == ()


# -- the blow-down searches ---------------------------------------------------

def fraction_sites(g):
    """_ordered_sites(g) with the levels compared and the sizes computed
    as Fractions, and the sites sorted by those sizes, as the searches
    once did."""
    lo, hi = g.min_vertex(), g.max_vertex()
    options = []
    for e in g.edges:
        if {e.a, e.b} & {lo.id, hi.id}:
            continue
        v_bot, v_top = (e.a, e.b) if g.moment(e.a) < g.moment(e.b) \
            else (e.b, e.a)
        m = isotropy_weights(g, v_top)[1]
        n = -isotropy_weights(g, v_bot)[0]
        if m + n == e.k:
            lam = Fraction(g.moment(v_top) - g.moment(v_bot), e.k)
            options.append(((0, -e.k, (v_bot, v_top)),
                            BlowdownSite("A", (v_bot, v_top), lam)))
    for side, ext, sgn in (("min", lo, 1), ("max", hi, -1)):
        if ext.kind == "point":
            a, b = sorted(abs(x) for x in isotropy_weights(g, ext.id))
            for n, d in dict.fromkeys(((a, b), (b, a))):
                for q in g.interior_ids():
                    down, up = isotropy_weights(g, q)
                    outward, inward = (up, -down) if sgn > 0 \
                        else (-down, up)
                    if outward != a + b or inward != d:
                        continue
                    linked = any({e.a, e.b} == {ext.id, q} for e in g.edges)
                    if (d >= 2) != linked:
                        continue
                    lam = Fraction(abs(g.moment(q) - ext.moment), d)
                    options.append(((1, lam, side != "min", (ext.id, q)),
                                     BlowdownSite("C", (ext.id, q), lam,
                                                  side)))
            continue
        if ext.genus == 0 and getattr(extremal_self_intersections(g),
                                      "e_" + side) == -1:
            options.append(((2, side != "min"),
                            BlowdownSite("D", (ext.id,), ext.area, side)))
        for q in g.interior_ids():
            if not g.edges_at(q):
                lam = abs(g.moment(q) - ext.moment)
                options.append(((3, lam, side != "max", (q,)),
                                 BlowdownSite("B", (q,), lam, side)))
    options.sort(key=lambda option: option[0])
    return [site for _, site in options]


def test_sites_match_fraction_searches(indexed_graphs, corpus_and_flips):
    patterns = set()
    for g in indexed_graphs + corpus_and_flips:
        sites = _ordered_sites(g)
        assert sites == fraction_sites(g), graph_to_json(g)
        assert all(type(site.lam) is Fraction for site in sites)
        patterns.update(site.pattern for site in sites)
    assert patterns == set("ABCD")


def relabel(g, tag):
    new = {vid: "%s%d" % (tag, i) for i, vid in enumerate(sorted(g.vertices))}
    return DecoratedGraph(
        [Vertex(new[v.id], v.kind, v.moment, v.area, v.genus)
         for v in g.vertices.values()],
        [Edge(new[e.a], new[e.b], e.k) for e in g.edges])


def halve(g):
    """g with every level halved: the same ids, often the same integer
    levels Y, and twice the _scale.  Not valid, but it has a key."""
    return DecoratedGraph(
        [Vertex(v.id, v.kind, v.moment / 2, v.area, v.genus)
         for v in g.vertices.values()], g.edges)


def test_memo_key_matches_vertex_and_edge_sets(indexed_graphs,
                                               corpus_and_flips):
    graphs = []
    for g in indexed_graphs[::9] + corpus_and_flips[::25]:
        graphs += [g, graph_from_json(graph_to_json(g)), flip(flip(g)),
                   shift(g, 0), shift(g, F(1, 7)), relabel(g, "v"),
                   relabel(shift(g, 1), "v"), flip(g), halve(g),
                   halve(shift(g, g.min_vertex().moment))]
    old = [(frozenset(g.vertices.values()), frozenset(g.edges))
           for g in graphs]
    new = [_state(g) for g in graphs]
    equal = same_y = 0
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            same = old[i] == old[j]
            assert (new[i] == new[j]) == same, (i, j)
            equal += same
            same_y += not same and new[i][1:] == new[j][1:]
    assert len(graphs) > 1000 and equal > 300
    # equal integer levels over a different _scale are different states
    assert same_y > 0
