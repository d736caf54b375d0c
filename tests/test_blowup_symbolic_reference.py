"""The symbolic blow-up on the integer level index against the Fraction
form it replaced.

``blowup_symbolic`` keeps g and its slopes and reads the supremum off
the spheres at the blown-up point on g's ``_scale``, and ``instantiate``
reuses g's vertices and makes one ``Fraction`` per new level.  The
reference below is the form they replaced: every vertex of the blown-up
graph as a pair (c0, c1) of labels c0 + c1 lambda, with c0 a
``Fraction``, and the pairwise constraints and the supremum built from
those pairs.  At every blow-up site both must give the same supremum,
and at sup/3, sup/2, sup, 2 sup and 1 the same graph: the same vertices
in the same order, the same edges in the same order and the same
validity mark.  The graphs are the small enumeration corpus with
its flips, and the 25-prime chain (``_scale`` > 10^36) and the shifted
corpus of the level-index reference with their flips.
"""

from fractions import Fraction

from hamgraphs import (DecoratedGraph, Edge, GraphError, Vertex,
                       blowup_sites, blowup_symbolic, flip, instantiate,
                       isotropy_weights, require_valid)
from hamgraphs.blowup_calculus import _fresh, _tag
# the prime chain and the shifted corpus, with their flips, as the
# level-index reference builds them
from test_level_index_reference import indexed_graphs
from test_sphere_table_reference import reference_strand_of


def _aff(c0, c1=0):
    """The label c0 + c1*lambda, with c0 a Fraction and c1 an int."""
    return (c0 if isinstance(c0, Fraction) else Fraction(c0), c1)


def _aff_at(a, lam):
    return a[0] + lam * a[1] if a[1] else a[0]


class ReferenceBlowup:
    """Every vertex as (kind, moment aff, area aff|None, genus), the pair
    constraints of the moving points and every area label."""

    def __init__(self, vertices, edges, near):
        self.vertices = vertices
        self.edges = edges
        out, done = [], set()
        for v, ids in near.items():
            c0, c1 = vertices[v][1]
            for w, (_, (d0, d1), _, _) in vertices.items():
                if d1 != c1 and w not in done and (ids is None or w in ids):
                    out.append((d0 - c0, d1 - c1) if (d0, d1) > (c0, c1)
                               else (c0 - d0, c1 - d1))
            done.add(v)
        self.constraints = out + [area for _, _, area, _ in vertices.values()
                                  if area is not None]
        self.sup = min((-c0 / c1 for c0, c1 in self.constraints if c1 < 0),
                       default=None)


def reference_blowup_symbolic(g, site):
    require_valid(g)
    p = g.vertex(site.vertex)
    ends = {g.min_vertex().id, g.max_vertex().id}
    alpha = p.moment
    sym_vertices = {v.id: (v.kind, _aff(v.moment),
                           None if v.area is None else _aff(v.area), v.genus)
                    for v in g.vertices.values()}
    edges = [e for e in g.edges if p.id not in (e.a, e.b)]
    touched = [e for e in g.edges if p.id in (e.a, e.b)]
    ids = set(sym_vertices)
    tag = _tag(g, p.id)
    sgn = -1 if "Max" in tag else 1
    if tag == "Interior":
        wdn, wup = isotropy_weights(g, p.id)
        n, m = -wdn, wup
        del sym_vertices[p.id]
        v_hi, v_lo = _fresh(ids, p.id + ".hi"), _fresh(ids, p.id + ".lo")
        sym_vertices[v_hi] = ("point", _aff(alpha, m), None, None)
        sym_vertices[v_lo] = ("point", _aff(alpha, -n), None, None)
        for e in touched:
            other = e.other(p.id)
            target = v_hi if g.moment(other) > alpha else v_lo
            edges.append(Edge(target, other, e.k))
        edges.append(Edge(v_lo, v_hi, m + n))
        strand = ends.union((v_hi, v_lo), reference_strand_of(g, p.id))
        near = {v_hi: strand, v_lo: strand}
    elif tag.startswith("Surface"):
        kind, mom, area, genus = sym_vertices[p.id]
        sym_vertices[p.id] = (kind, mom, (area[0], area[1] - 1), genus)
        v_new = _fresh(ids, p.id + ".new")
        sym_vertices[v_new] = ("point", _aff(alpha, sgn), None, None)
        near = {v_new: ends}
    elif tag.endswith("Distinct"):
        n, m = sorted(abs(x) for x in isotropy_weights(g, p.id))
        del sym_vertices[p.id]
        v_ext = _fresh(ids, p.id + ".lo" if sgn > 0 else p.id + ".hi")
        v_int = _fresh(ids, p.id + ".hi" if sgn > 0 else p.id + ".lo")
        sym_vertices[v_ext] = ("point", _aff(alpha, sgn * n), None, None)
        sym_vertices[v_int] = ("point", _aff(alpha, sgn * m), None, None)
        for e in touched:
            target = v_ext if e.k == n else v_int
            edges.append(Edge(target, e.other(p.id), e.k))
        if m - n >= 2:
            edges.append(Edge(v_ext, v_int, m - n))
        w = next(e.other(p.id) for e in touched if e.k == m)
        near = {v_ext: None,
                v_int: (ends - {p.id}).union(
                    (v_ext,), reference_strand_of(g, w) or ())}
    else:
        genus = next((s.genus for s in g.surfaces()), 0)
        del sym_vertices[p.id]
        v_s = _fresh(ids, p.id + ".s")
        sym_vertices[v_s] = ("surface", _aff(alpha, sgn), _aff(0, 1), genus)
        near = {v_s: None}
    return ReferenceBlowup(sym_vertices, edges, near)


def reference_instantiate(ref, lam):
    lam = Fraction(lam)
    if lam <= 0:
        raise GraphError("blow-up size must be positive")
    g = DecoratedGraph(
        [Vertex(vid, kind, _aff_at(mom, lam),
                None if area is None else _aff_at(area, lam), genus)
         for vid, (kind, mom, area, genus) in ref.vertices.items()],
        ref.edges)
    if lam > 0 and (ref.sup is None or lam < ref.sup):
        g._problems = ()
    return g


def assert_same_blowups(g):
    """Check every blow-up site of g; returns the number of sites."""
    sites = blowup_sites(g)
    for site in sites:
        sb = blowup_symbolic(g, site)
        ref = reference_blowup_symbolic(g, site)
        assert sb.sup == ref.sup, site
        sup = Fraction(1) if ref.sup is None else ref.sup
        for lam in (sup / 3, sup / 2, sup, 2 * sup, 1):
            h, r = instantiate(sb, lam), reference_instantiate(ref, lam)
            assert repr(list(h.vertices.values())) == \
                repr(list(r.vertices.values())), (site, lam)
            assert h.edges == r.edges, (site, lam)
            assert h._problems == r._problems, (site, lam)
    return len(sites)


def test_matches_reference_on_small_corpus_and_flips(enumerated_small):
    sites = 0
    for rec in enumerated_small:
        sites += assert_same_blowups(rec.graph)
        sites += assert_same_blowups(flip(rec.graph))
    assert sites > 1800


def test_matches_reference_on_prime_chain_and_shifted_corpus(
        indexed_graphs):
    prime_chain = indexed_graphs[0]
    assert prime_chain._scale > 10 ** 36
    sites = sum(assert_same_blowups(g) for g in indexed_graphs)
    assert sites > 1800
