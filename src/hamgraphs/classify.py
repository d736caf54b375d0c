"""Minimal models, toric classification, and graph enumeration.

The minimal spaces come in four shapes: the projective plane with a circle
subaction (three isolated fixed points), its variant with a fixed surface,
the Hirzebruch surfaces (three graph variants), and ruled surfaces over a
genus-g curve (two fixed surfaces, no interior points).  Everything else
arises from these by blow-ups.
"""

from fractions import Fraction
from math import gcd
from numbers import Rational

from . import blowup_calculus
from .dh_measure import extremal_self_intersections
from .graph_core import (DecoratedGraph, Edge, GraphError, Vertex,
                         _free_capacity, _json_int, _json_str, _sphere_links,
                         canonical_form, extend_graph, flip, require_valid)
from .rational import parse_rat
from .toric_geometry import affine_normal_form, graph_to_polygon


def _edges(pairs):
    return [Edge(a, b, k) for a, b, k in pairs if k >= 2]


def _integer(name, value):
    """The integer parameter value, a string read by parse_rat; a
    GraphError names it, as parsed, otherwise."""
    if isinstance(value, str):
        try:
            value = parse_rat(value)
        except ValueError:
            pass
    elif isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, Rational) or value.denominator != 1:
        raise GraphError("%s = %s is not an integer" % (name, value))
    return int(value)


def _rational(name, value):
    """The rational parameter value, a string read by parse_rat; a
    GraphError names it otherwise."""
    try:
        return parse_rat(value) if isinstance(value, str) else Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise GraphError("%s = %s is not a rational" % (name, value)) from None


def cp2_graph(m, n, alpha=0, beta=1):
    """Projective plane with the circle acting through weights (m, n)."""
    m, n = _integer("m", m), _integer("n", n)
    alpha, beta = _rational("alpha", alpha), _rational("beta", beta)
    if m <= 0 or n <= 0 or gcd(m, n) != 1 or beta <= 0:
        raise GraphError("cp2 needs coprime positive m, n and beta > 0")
    vertices = [Vertex("min", "point", alpha - n * beta),
                Vertex("int", "point", alpha),
                Vertex("max", "point", alpha + m * beta)]
    edges = _edges([("min", "max", m + n), ("int", "min", n),
                    ("int", "max", m)])
    return require_valid(DecoratedGraph(vertices, edges))


def cp2_surface_graph(alpha=0, lam=1):
    """Projective plane with a fixed sphere at the bottom."""
    alpha, lam = _rational("alpha", alpha), _rational("lambda", lam)
    if lam <= 0:
        raise GraphError("cp2-surface needs lambda > 0")
    vertices = [Vertex("min", "surface", alpha, area=lam, genus=0),
                Vertex("max", "point", alpha + lam)]
    return require_valid(DecoratedGraph(vertices, []))


def hirzebruch_graph(variant, n, c=1, d=1, r=1, s=1, alpha=0):
    """Hirzebruch surface graphs; variant in {"left", "middle", "right"}."""
    n, c, d = _integer("n", n), _integer("c", c), _integer("d", d)
    r, s = _rational("r", r), _rational("s", s)
    alpha = _rational("alpha", alpha)
    if r <= 0 or s <= 0:
        raise GraphError("hirzebruch needs r, s > 0")
    if variant == "right":
        if n < 1:
            raise GraphError("hirzebruch right variant needs n >= 1")
        vertices = [Vertex("min", "surface", alpha, area=s, genus=0),
                    Vertex("int", "point", alpha + r),
                    Vertex("max", "point", alpha + r + n * s)]
        edges = _edges([("int", "max", n)])
    elif variant == "left":
        if c < 1 or d < 1 or gcd(c, d) != 1 or n < 0:
            raise GraphError("hirzebruch left variant needs coprime "
                             "positive c, d and n >= 0")
        vertices = [Vertex("min", "point", alpha),
                    Vertex("rint", "point", alpha + r * c),
                    Vertex("lint", "point", alpha + s * d),
                    Vertex("max", "point", alpha + r * c + s * d + n * s * c)]
        edges = _edges([("min", "rint", c), ("rint", "max", n * c + d),
                        ("min", "lint", d), ("lint", "max", c)])
    elif variant == "middle":
        if c < 1 or d < 1 or gcd(c, d) != 1 or n * c - d < 1:
            raise GraphError("hirzebruch middle variant needs coprime "
                             "positive c, d with n c - d >= 1")
        if not s * d < r * c + s * d - n * s * c < r * c:
            raise GraphError("hirzebruch middle variant needs r > n s and "
                             "d < n c for monotone labels")
        vertices = [Vertex("min", "point", alpha),
                    Vertex("v1", "point", alpha + s * d),
                    Vertex("v2", "point",
                           alpha + r * c + s * d - n * s * c),
                    Vertex("max", "point", alpha + r * c)]
        edges = _edges([("min", "max", c), ("min", "v1", d),
                        ("v1", "v2", c), ("v2", "max", n * c - d)])
    else:
        raise GraphError("unknown hirzebruch variant %r" % (variant,))
    return require_valid(DecoratedGraph(vertices, edges))


def ruled_graph(g=0, n=0, r=1, s=1, alpha=0):
    """Ruled surface over a genus-g curve: two fixed surfaces, nothing else."""
    g, n = _integer("genus", g), _integer("n", n)
    r, s = _rational("r", r), _rational("s", s)
    alpha = _rational("alpha", alpha)
    if g < 0 or r <= 0 or s <= 0 or r + n * s <= 0:
        raise GraphError("ruled needs g >= 0, r > 0, s > 0 and positive "
                         "top area r + n s")
    vertices = [Vertex("min", "surface", alpha, area=r, genus=g),
                Vertex("max", "surface", alpha + s, area=r + n * s, genus=g)]
    return require_valid(DecoratedGraph(vertices, []))


_FAMILIES = {
    "cp2": cp2_graph,
    "cp2-surface": cp2_surface_graph,
    "hirzebruch": hirzebruch_graph,
    "ruled": ruled_graph,
}


def minimal_graph(family, *args, flipped=False, **kw):
    if family not in _FAMILIES:
        raise GraphError("unknown minimal family %r" % (family,))
    build = _FAMILIES[family]
    # the builders take positional-or-keyword parameters only: the call
    # binds when it gives each parameter at most once, none unknown, and
    # every one without a default
    names = build.__code__.co_varnames[:build.__code__.co_argcount]
    required = len(names) - len(build.__defaults__ or ())
    if (len(args) > len(names) or not set(kw) <= set(names[len(args):])
            or not set(names[len(args):required]) <= set(kw)):
        raise GraphError("%s takes %d to %d parameters (%s), not %d" % (
            family, required, len(names), ", ".join(names),
            len(args) + len(kw)))
    g = build(*args, **kw)
    return flip(g) if flipped else g


def match_minimal_family(g):
    """Name of the minimal family g belongs to, or None.

    Matching is up to flip.  A graph with only isolated fixed points is
    decided from the graph: three fixed points are the projective plane,
    four are a Hirzebruch surface exactly when the graph has no blow-down
    site, and more are never minimal.
    """
    require_valid(g)
    return blowup_calculus._minimal_family(g)[0]


def is_toric_extendable(g):
    """Whether the circle action extends to a toric one."""
    require_valid(g)
    if any(s.genus != 0 for s in g.surfaces()):
        return False
    try:
        extend_graph(g)
    except GraphError:
        return False
    return True


def classify_isolated(g):
    """The canonical Delzant polygon of a graph with isolated fixed points.

    The polygon has no horizontal edge: every sphere joins two levels,
    and graph_to_polygon's width equals the density, which is 0 at the
    isolated extrema, so its only horizontal edges are fixed surfaces.
    No proof is known that a free edge never lies away from the extrema,
    so that is still checked, by a count on g.  Each edge of the polygon
    is one sphere of extend_graph's chains, or the direct minimum-maximum
    free sphere graph_to_polygon adds to a lone chain, and a sphere of
    weight k has |normal x| = k, so the free (k = 1) spheres are the
    edges with |normal x| = 1.  A free sphere away from the extrema joins
    two interior points, a top (no up edge) and a bottom (no down edge),
    and extend_graph sends the first min(#tops, c) tops to the maximum,
    c = 2 - #edges at the maximum (_free_capacity), and matches each
    other top to a bottom (see its docstring).  So such an edge exists
    exactly when the tops outnumber c.  graph_to_polygon keeps its
    polygon on g, so one it has already built is reused."""
    require_valid(g)
    if any(v.kind != "point" for v in g.vertices.values()):
        raise GraphError("classify_isolated needs a graph with only "
                         "isolated fixed points")
    P = graph_to_polygon(g)
    tops = len(_sphere_links(g).tops)
    if tops > _free_capacity(g, g.max_vertex().id):
        raise GraphError("internal failure: free edge away from the "
                         "extrema")
    return affine_normal_form(P)


# -- enumeration -------------------------------------------------------------

class EnumeratedGraph:
    """A class found by enumerate_graphs; digest is the exact canonical
    form's digest of graph."""

    def __init__(self, graph, seed_key, depth, digest):
        self.graph = graph
        self.seed_key = seed_key
        self.depth = depth
        self.digest = digest

    def __repr__(self):
        return "EnumeratedGraph(%s, depth=%d)" % (self.seed_key, self.depth)


def enumerate_graphs(seeds, max_blowups):
    """Breadth-first closure of the seed graphs under blow-ups.

    seeds: list of (key, DecoratedGraph).  At every site the blow-up size
    is half the supremum of admissible sizes, which is admissible (the
    interval is (0, sup), see blowup_calculus.blowup_symbolic), so
    instantiate marks each child valid.  Graphs are deduplicated by exact
    canonical form; output order is deterministic.  A label too long to
    print raises a ValueError that names the seed's key and the depth.
    """
    def digest_of(g, key, depth):
        try:
            return canonical_form(g, "exact").digest
        except ValueError as exc:
            raise ValueError("seed %s at depth %d: %s"
                             % (key, depth, exc)) from None

    out = []
    index = {}
    frontier = []
    for key, g in seeds:
        require_valid(g)
        digest = digest_of(g, key, 0)
        if digest in index:
            continue
        rec = EnumeratedGraph(g, key, 0, digest)
        index[digest] = rec
        out.append(rec)
        frontier.append(rec)
    for depth in range(1, max_blowups + 1):
        next_frontier = []
        for rec in frontier:
            for site in blowup_calculus.blowup_sites(rec.graph):
                sb = blowup_calculus.blowup_symbolic(rec.graph, site)
                child = blowup_calculus.instantiate(sb, sb.sup / 2)
                digest = digest_of(child, rec.seed_key, depth)
                if digest in index:
                    continue
                child_rec = EnumeratedGraph(child, rec.seed_key, depth, digest)
                index[digest] = child_rec
                out.append(child_rec)
                next_frontier.append(child_rec)
        frontier = next_frontier
    return out


def assign_labels(skeleton, moments, a_min, a_max, e_choice):
    """Fill in the real labels of a two-surface skeleton and validate the
    compatibility constraints.

    skeleton: {"vertices": [{"id", "kind", "genus"?}], "edges": [...]} with
    surface extrema; moments: id -> level; e_choice: (e_min, e_max)
    integers.  The constraints are e_min + e_max = -sum 1/(m_p n_p) and
    a_min - a_max = -e_min y_min - sum y_p/(m_p n_p) - e_max y_max, which
    together make the Duistermaat-Heckman density vanish above the support.
    """
    a_min, a_max = _rational("a_min", a_min), _rational("a_max", a_max)
    e_min, e_max = e_choice
    vertices = []
    levels = {vid: _rational("moment of %s" % vid, m)
              for vid, m in moments.items()}
    y_min, y_max = min(levels.values()), max(levels.values())
    try:
        for v in skeleton["vertices"]:
            vid, kind = _json_str(v, "id"), v["kind"]
            if kind == "surface":
                area = a_min if levels[vid] == y_min else a_max
                genus = _json_int(v, "genus") if "genus" in v else 0
                vertices.append(Vertex(vid, kind, levels[vid], area, genus))
            else:
                vertices.append(Vertex(vid, kind, levels[vid]))
        edges = [Edge(_json_str(e, "a"), _json_str(e, "b"), _json_int(e, "k"))
                 for e in skeleton.get("edges", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError("malformed skeleton: %s" % exc) from exc
    if a_min <= 0 or a_max <= 0:
        raise GraphError("area labels must be positive")
    g = require_valid(DecoratedGraph(vertices, edges))
    lo, hi = g.min_vertex(), g.max_vertex()
    if lo.kind != "surface" or hi.kind != "surface":
        raise GraphError("assign_labels needs surface extrema")
    # the two constraints have one solution, which validation solved
    ext = extremal_self_intersections(g)
    if (e_min, e_max) != (ext.e_min, ext.e_max):
        raise GraphError("e_min, e_max = %s, %s but the labels demand %s, %s"
                         % (e_min, e_max, ext.e_min, ext.e_max))
    return g
