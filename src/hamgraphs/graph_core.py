"""Decorated graphs for 4-dimensional spaces with a Hamiltonian circle action.

A graph records the fixed-point data of such a space: vertices are fixed
surfaces or isolated fixed points placed at their moment-map levels, and
edges of weight k >= 2 record gradient spheres on which the circle acts
with stabilizer Z_k.  Free (weight 1) spheres are not stored; they are
reconstructed on demand by ``extend_graph``.
"""

import hashlib
import json
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .rational import _fmt_reduced, fmt_rat, parse_rat


class GraphError(Exception):
    """Domain error: the input is structurally fine but mathematically bad."""


class ValidationError(GraphError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NoExtensionError(GraphError):
    pass


# kind is "point" or "surface"; a surface has an area and a genus
Vertex = namedtuple("Vertex", "id kind moment area genus",
                    defaults=(None, None))


class Edge(namedtuple("Edge", "a b k")):
    __slots__ = ()

    def other(self, vid):
        if vid == self.a:
            return self.b
        if vid == self.b:
            return self.a
        raise KeyError(vid)


# a sphere from the fixed point south up to north, with stabilizer Z_k
# (k = 1 for a free sphere)
Sphere = namedtuple("Sphere", "south north k")


class DecoratedGraph:
    """A decorated graph, immutable after construction.

    ``vertices`` is a read-only mapping from id to ``Vertex`` and ``edges``
    a tuple.  Construction indexes the graph once.  When every moment is a
    ``Fraction`` the levels become integers over one denominator:
    ``_scale`` is the least common multiple of the moment denominators and
    ``_y[vid]`` the moment times ``_scale``; otherwise both are None.  The
    (moment, id) level order with its extrema (``_order``) and the split
    of the edges at each vertex into up and down edges are sorted and
    compared on ``_y``; ``_order`` is empty when there is no index or the
    ids do not compare.  ``_problems``, ``_extremal_pair``, ``_chains``,
    ``extend_graph``, the ``shift`` mode of ``canonical_form``,
    ``dh_measure.density``, ``toric_geometry.graph_to_polygon``,
    ``homology.class_values``, the symbolic blow-up and the blow-down
    site search read the index and make one ``Fraction`` per number
    they return, and ``reduce_to_minimal`` keys its memo on it;
    ``Vertex.moment`` stays the public level.  Each of the index, the edge
    split and the level order is built in one pass: the vertices are keyed
    by id in one dict comprehension, and only when an id is unhashable or
    repeated does a second scan name the first such id; one pass over the
    edges fills the edges at each vertex (a self-loop once) and splits
    them into up and down edges, with no set built per edge.
    ``validate_graph`` computes its result at most once per graph,
    ``isotropy_weights`` fills the weights of every vertex in one pass on
    its first call (``_weights``), ``_extremal_pair`` the extremal
    self-intersections,
    ``graph_to_polygon`` the Delzant polygon (``_polygon``) and
    ``_strands`` the strands of a valid graph, its chains of spheres from
    the minimum to the maximum (``_spheres``), which ``compare`` and
    ``homology`` read, and whose spheres (its edges and ``_strand_frees``)
    the blow-down site search tests for S.S = -1; a graph built by a
    rewrite proved to keep validity is marked valid at once
    (``_problems = ()``).
    """

    def __init__(self, vertices, edges=()):
        if not isinstance(vertices, (list, tuple)):
            vertices = list(vertices)
        try:
            by_id = {v.id: v for v in vertices}
        except TypeError:   # an unhashable id; named below
            by_id = {}
        if len(by_id) < len(vertices):
            _refuse_ids(vertices)
        self.vertices = MappingProxyType(by_id)
        self.edges = edges = tuple(edges)
        self._problems = None   # validate_graph's result, once computed
        self._weights = {}      # every vid's isotropy weights, once filled
        self._extremal = None   # (e_min, e_max), once solved
        self._polygon = None    # graph_to_polygon's result, once built
        self._spheres = None    # _strands' chains of spheres, once walked
        self._scale = y = None
        ratios = [v.moment.as_integer_ratio() for v in vertices
                  if isinstance(v.moment, Fraction)]
        if len(ratios) == len(vertices):
            self._scale = scale = lcm(*[d for _, d in ratios])
            y = {vid: n * (scale // d) for vid, (n, d) in zip(by_id, ratios)}
        self._y = y
        # the edges at each vertex, and the up and down edges split on _y,
        # in lists for the vertices an edge touches; a self-loop is at its
        # vertex once
        at, up, down = {}, {}, {}
        for e in edges:
            a, b = e.a, e.b
            try:
                has_a, has_b = a in by_id, b in by_id
            except TypeError:   # an unhashable endpoint is no vertex id
                raise ValidationError(["edge %s--%s: unknown endpoint"
                                       % (a, b)]) from None
            if has_a:
                at.setdefault(a, []).append(e)
            if has_b and b != a:
                at.setdefault(b, []).append(e)
            if has_a and has_b and y is not None and y[a] != y[b]:
                low, high = (a, b) if y[a] < y[b] else (b, a)
                up.setdefault(low, []).append(e)
                down.setdefault(high, []).append(e)
        self._at = dict.fromkeys(by_id, ())
        self._up, self._down = self._at.copy(), self._at.copy()
        for index, lists in ((self._at, at), (self._up, up),
                             (self._down, down)):
            for vid, es in lists.items():
                index[vid] = tuple(es)
        ids = ()
        if y is not None:
            try:
                # stable sorts by id and then by level give the (moment,
                # id) order
                ids = sorted(by_id)
                ids.sort(key=y.__getitem__)
            except TypeError:
                # ids that do not compare; validate_graph reports them
                # before it needs the level order
                pass
        self._order = tuple(map(by_id.__getitem__, ids))
        self._interior = tuple(ids[1:-1])

    def vertex(self, vid):
        return self.vertices[vid]

    def moment(self, vid):
        return self.vertices[vid].moment

    def edges_at(self, vid):
        return self._at[vid]

    def up_edges(self, vid):
        return self._up[vid]

    def down_edges(self, vid):
        return self._down[vid]

    def min_vertex(self):
        return self._order[0]

    def max_vertex(self):
        return self._order[-1]

    def is_extremal(self, vid):
        return vid in (self._order[0].id, self._order[-1].id)

    def interior_ids(self):
        return self._interior

    def surfaces(self):
        return [v for v in self.vertices.values() if v.kind == "surface"]

    def __repr__(self):
        return "DecoratedGraph(%d vertices, %d edges)" % (
            len(self.vertices), len(self.edges))


def _refuse_ids(vertices):
    """Raise the ValidationError that names the first vertex id of
    vertices that cannot key the index: an unhashable id or a repeat."""
    seen = set()
    for v in vertices:
        try:
            repeat = v.id in seen
        except TypeError:   # an unhashable id cannot be indexed
            raise ValidationError(["vertex %r: id is not a string"
                                   % (v.id,)]) from None
        if repeat:
            raise ValidationError(["duplicate vertex id %r" % v.id])
        seen.add(v.id)


def validate_graph(g):
    """Return a list of human-readable problems; empty means valid.

    The extremal stage solves the extremal self-intersections from the
    labels and requires -1/(n n') at an isolated extremum with weights
    {n, n'} and an integer at a fixed surface.  The last stage requires an
    integer self-intersection on every recorded sphere (_sphere_square).

    The problems are found once per graph and kept on it; each call returns
    a fresh copy.
    """
    if g._problems is None:
        g._problems = tuple(_problems(g))
    return list(g._problems)


def _problems(g):
    problems = []
    if not g.vertices:
        return ["graph has no vertices"]
    for v in g.vertices.values():
        if not isinstance(v.id, str):
            # such an id need not sort with the others, nor print with %s
            problems.append("vertex %r: id is not a string" % (v.id,))
            continue
        if v.kind not in ("point", "surface"):
            problems.append("vertex %s: unknown kind %r" % (v.id, v.kind))
        if not isinstance(v.moment, Fraction):
            problems.append("vertex %s: moment is not rational" % v.id)
        if v.kind == "surface":
            if v.area is not None and not isinstance(v.area, Fraction):
                problems.append("vertex %s: area is not rational" % v.id)
            elif v.area is None or v.area <= 0:
                problems.append("vertex %s: surface needs positive area" % v.id)
            if v.genus is not None and (isinstance(v.genus, bool)
                                        or not isinstance(v.genus, int)):
                problems.append("vertex %s: genus is not an integer" % v.id)
            elif v.genus is None or v.genus < 0:
                problems.append("vertex %s: surface needs genus >= 0" % v.id)
        else:
            if v.area is not None or v.genus is not None:
                problems.append("vertex %s: point carries area or genus" % v.id)
    # without the index the moments are compared as given
    level = g.moment if g._y is None else g._y.__getitem__
    for e in g.edges:
        if e.a not in g.vertices or e.b not in g.vertices:
            problems.append("edge %s--%s: unknown endpoint" % (e.a, e.b))
            continue
        if e.a == e.b:
            problems.append("edge %s--%s: endpoints coincide" % (e.a, e.b))
        if not isinstance(e.k, int) or e.k < 2:
            problems.append("edge %s--%s: weight %r is not an integer >= 2"
                            % (e.a, e.b, e.k))
        elif level(e.a) == level(e.b):
            problems.append("edge %s--%s: endpoints at the same level"
                            % (e.a, e.b))
    if problems:
        return problems

    # every id is a str and every moment a Fraction, so the level order
    # was sorted: its ends are the extrema, and their neighbours tell
    # whether either is attained twice
    y = [g._y[v.id] for v in g._order]
    if y[0] == y[-1]:
        return ["minimum and maximum level coincide"]
    if y[1] == y[0]:
        problems.append("minimum level attained by more than one vertex")
    if y[-2] == y[-1]:
        problems.append("maximum level attained by more than one vertex")
    if problems:
        return problems

    lo, hi = g.min_vertex(), g.max_vertex()
    for vid in g.interior_ids():
        v = g.vertex(vid)
        if v.kind != "point":
            problems.append("vertex %s: interior fixed surface" % vid)
        if len(g.up_edges(vid)) > 1:
            problems.append("vertex %s: more than one up edge" % vid)
        if len(g.down_edges(vid)) > 1:
            problems.append("vertex %s: more than one down edge" % vid)
    for ext in (lo, hi):
        deg = len(g.edges_at(ext.id))
        if ext.kind == "surface" and deg > 0:
            problems.append("vertex %s: extremal surface carries edges" % ext.id)
        if ext.kind == "point" and deg > 2:
            problems.append("vertex %s: isolated extremum with more than "
                            "two edges" % ext.id)
    if problems:
        return problems

    weights = _weight_table(g)
    for vid in g.vertices:
        w1, w2 = weights[vid]
        if gcd(abs(w1), abs(w2)) != 1:
            problems.append("vertex %s: isotropy weights %d, %d not coprime"
                            % (vid, w1, w2))
    genera = {v.genus for v in g.surfaces()}
    if len(genera) > 1:
        problems.append("fixed surfaces of different genus")
    if problems:
        return problems

    for ext, e in zip((lo, hi), _extremal_pair(g)):
        if ext.kind == "surface":
            if e.denominator != 1:
                problems.append("vertex %s: fixed surface has non-integer "
                                "self-intersection %s" % (ext.id, fmt_rat(e)))
        else:
            # -1/(w1 w2) in lowest terms, as w1 w2 > 0 at an extremum
            w1, w2 = weights[ext.id]
            if e.numerator != -1 or e.denominator != w1 * w2:
                problems.append("vertex %s: isolated extremum with weights "
                                "{%d, %d} has self-intersection %s, not %s"
                                % (ext.id, abs(w1), abs(w2), fmt_rat(e),
                                   fmt_rat(Fraction(-1, w1 * w2))))
    if problems:
        return problems

    y = g._y
    for e in g.edges:
        low, high = (e.a, e.b) if y[e.a] < y[e.b] else (e.b, e.a)
        square = _sphere_square(g, low, high, e.k)
        if square.denominator != 1:
            problems.append("edge %s--%s: sphere of weight %d has non-integer "
                            "self-intersection %s"
                            % (e.a, e.b, e.k, fmt_rat(square)))
    return problems


def _weight_products(g):
    """m_p n_p, the product of the weights {-m_p, n_p}, for each interior
    fixed point in level order."""
    weights = _weight_table(g)
    return [-weights[vid][0] * weights[vid][1] for vid in g.interior_ids()]


def _extremal_pair(g):
    """(e_min, e_max), the self-intersections of the extremal sets, solved
    once and kept on the graph.  Needs a graph that passes validate_graph
    up to its extremal stage, such as a valid graph or a blow-down of one.

    The Duistermaat-Heckman density vanishes above y_max: its slope there
    gives e_min + e_max = -sum 1/(m_p n_p), and its constant term gives
    y_min e_min + y_max e_max = a_max - a_min - sum y_p/(m_p n_p), that is
    (y_max - y_min) e_max = a_max - a_min - sum (y_p - y_min)/(m_p n_p).
    Both sums run over integers, on the integer levels Y = _scale y and
    over the least common multiple den of the products m_p n_p, with one
    Fraction made of each result at the end.
    """
    if g._extremal is None:
        lo, hi = g.min_vertex(), g.max_vertex()
        y, y0 = g._y, g._y[lo.id]
        mns = _weight_products(g)
        den = lcm(*mns)
        s0 = sum(den // mn for mn in mns)
        s1 = sum((y[vid] - y0) * (den // mn)
                 for vid, mn in zip(g.interior_ids(), mns))
        area = (hi.area or 0) - (lo.area or 0)   # a_max - a_min
        rise = (y[hi.id] - y0) * area.denominator
        n_max = g._scale * den * area.numerator - s1 * area.denominator
        g._extremal = (Fraction(-s0 * rise - n_max, den * rise),
                       Fraction(n_max, den * rise))
    return g._extremal


def require_valid(g):
    problems = validate_graph(g)
    if problems:
        raise ValidationError(problems)
    return g


def _known_vertex(g, vid):
    """g's vertex vid; an id that is not in g, an unhashable one too, is
    refused with "unknown vertex ..."."""
    try:
        return g.vertices[vid]
    except (KeyError, TypeError):
        raise GraphError("unknown vertex %r" % (vid,)) from None


def _exact(x, what):
    """x, refusing any type but an int or a Fraction with a GraphError
    that names what x is and its type: a float, a string or a bool would
    stand for some other number."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise GraphError("%s must be an int or a Fraction, not %s"
                         % (what, type(x).__name__))
    return x


def isotropy_weights(g, vid):
    """Weights of the circle action on the tangent space at a fixed point.

    Returned as an increasing pair of integers.  Missing edges contribute
    weight 1; a fixed surface contributes weight 0.  The first call fills
    the weights of every vertex of g in one pass (_weight_table), and
    every later call is one lookup.  An id that is not in g is refused
    with "unknown vertex ...", an unhashable one too, and a graph without
    a level order (a moment that is not a Fraction, ids that do not
    compare) with its ValidationError.
    """
    try:
        return g._weights[vid]
    except (KeyError, TypeError):
        _known_vertex(g, vid)
        if not g._order:
            require_valid(g)
    return _weight_table(g)[vid]


def _weight_table(g):
    """g's isotropy weights, id -> pair, filled in one pass over the level
    order and the up and down edges on the first call and kept on g
    (``_weights``).  Needs the level order, which isotropy_weights
    checks for.

    The extrema take their two least edge weights, padded with 1s for
    missing edges, positive at the minimum and negative at the maximum;
    an interior point takes the weights of its first down and up edge,
    or -1 and 1 for a missing one; a fixed surface takes (0, 1) at the
    minimum and (-1, 0) anywhere else, so an interior surface of a graph
    that fails validation has weights too."""
    w = g._weights
    if not w:
        order, up, down = g._order, g._up, g._down
        lo, hi = order[0].id, order[-1].id
        for v in order:
            vid = v.id
            if v.kind == "surface":
                w[vid] = (0, 1) if vid == lo else (-1, 0)
            elif vid == lo:
                w[vid] = tuple(sorted((sorted(e.k for e in up[vid])
                                       + [1, 1])[:2]))
            elif vid == hi:
                w[vid] = tuple(sorted(-k for k in (sorted(
                    e.k for e in down[vid]) + [1, 1])[:2]))
            else:
                ups, downs = up[vid], down[vid]
                w[vid] = (-downs[0].k if downs else -1,
                          ups[0].k if ups else 1)
    return w


def _sphere_square(g, low, high, k):
    """S.S = (m_low - m_high)/k, the self-intersection of the sphere of
    weight k from the fixed point low up to high, where m_low is the
    isotropy weight at low other than +k and m_high the one at high other
    than -k; a surface end has other weight 0.  The Atiyah-Bott-Berline-
    Vergne formula restricted to the sphere gives it, and
    <c_1, S> = 2 + S.S, so both are integers on the graph of a space
    (Atiyah and Bott, Topology 23, 1984; Audin, Torus Actions on
    Symplectic Manifolds, 2004).  An int when it is an integer, so the
    check on a valid graph makes no Fraction; else a Fraction."""
    weights = _weight_table(g)
    m_low = sum(weights[low]) - k
    m_high = sum(weights[high]) + k
    square, rest = divmod(m_low - m_high, k)
    return Fraction(m_low - m_high, k) if rest else square


def compare(g, vid, wid):
    """Partial order on the fixed points of a valid graph: "less",
    "greater", "incomparable", or "equal".  An id that is not in g is
    refused.

    Two fixed points are comparable when their levels differ and either one
    of them is extremal or both lie on one strand (_strand_of); between two
    interior points a strand is made of recorded spheres, so that is a
    monotone chain of them.
    """
    require_valid(g)
    for x in (vid, wid):
        _known_vertex(g, x)
    if vid == wid:
        return "equal"
    yv, yw = g._y[vid], g._y[wid]
    strand = _strand_of(g, vid)
    if yv == yw or (strand is not None and not g.is_extremal(wid)
                    and wid not in strand):
        return "incomparable"
    return "less" if yv < yw else "greater"


def flip(g):
    """Reverse the circle action: negate all moment levels."""
    return DecoratedGraph(
        [Vertex(v.id, v.kind, -v.moment, v.area, v.genus)
         for v in g.vertices.values()],
        g.edges)


def shift(g, c):
    """Translate all moment levels by c, an int or a Fraction."""
    c = _exact(c, "level shift")
    return DecoratedGraph(
        [Vertex(v.id, v.kind, v.moment + c, v.area, v.genus)
         for v in g.vertices.values()],
        g.edges)


# -- canonical forms ---------------------------------------------------------

CanonicalForm = namedtuple("CanonicalForm", "digest text")


def canonical_form(g, mode="exact"):
    """Canonical normal form of a graph, as (sha256 digest, listing).

    mode "exact" keeps moment levels as given; mode "shift" first translates
    the graph so its minimum level is 0, so graphs differing by a moment-map
    constant agree.

    Colour refinement splits the vertices by label and by the colours of
    their neighbours.  While a class stays tied, the search individualises
    one vertex of the first tied class and refines again; it never
    branches, so each tie costs one refinement and the search stays
    polynomial.  A graph left tied must be valid (``require_valid``); one
    that refinement splits alone is listed whatever its validity.

    One branch is enough on a valid graph.  Take away its two extrema,
    whose levels, and so whose labels, are unique.  Every other vertex has
    at most one up and one down edge, so what is left is vertex-disjoint
    strands (the interiors of ``_strands``): monotone paths, on which
    levels rise strictly.  A stable colour fixes the label, and so the
    level, and the multiset of (k, neighbour colour) pairs; the neighbour
    above and the one below are told apart by their levels.  Walking up and
    down from two vertices u and v of one colour thus meets the same (k,
    colour) sequence, out to the same extrema.  So u and v sit at the same
    place on two strands with the same signature, and the strands are
    distinct, since one place on one strand is one vertex.  Swapping the
    two strands place by place is an automorphism that keeps labels and
    colours.  Each individualised vertex has a colour of its own, so it
    lies on neither strand and the swap fixes it.  Refinement commutes with
    such an automorphism, so the swap carries the search below u onto the
    search below v, and both end in the same listing.  Hence, by induction
    on the number of tied vertices, every choice of vertex gives one
    listing, equal to the smallest listing over all choices.

    Listings and digests stay the same from one version to the next,
    because the digests name enumerated class files.
    """
    if mode not in ("exact", "shift"):
        raise ValueError("mode must be 'exact' or 'shift'")
    if mode == "shift" and g._y is not None:
        # each level over _scale, above the lowest, reduced by one gcd
        y0 = min(g._y.values())
        shifted = {}
        for vid, y in g._y.items():
            c = gcd(y - y0, g._scale)
            shifted[vid] = _fmt_reduced((y - y0) // c, g._scale // c)
    elif mode == "shift":
        # moments that are not all Fractions, shifted as given
        low = min(v.moment for v in g.vertices.values())
        shifted = {vid: fmt_rat(v.moment - low)
                   for vid, v in g.vertices.items()}
    labels = {vid: "%s|%s|%s|%s" % (
        v.kind, fmt_rat(v.moment) if mode == "exact" else shifted[vid],
        "-" if v.area is None else fmt_rat(v.area),
        "-" if v.genus is None else v.genus)
        for vid, v in g.vertices.items()}
    colors = labels
    # refinement only splits label classes, and the listing orders the
    # vertices by (label, colour), so distinct labels fix it alone
    if len(set(labels.values())) < len(labels):
        incident = {vid: [] for vid in g.vertices}
        for e in g.edges:
            incident[e.a].append((e.k, e.b))
            incident[e.b].append((e.k, e.a))
        while True:
            # Weisfeiler-Leman refinement; classes only ever split, so a
            # stable class count means a stable partition
            new = {}
            for vid in g.vertices:
                around = sorted("%d:%s" % (k, colors[w])
                                for k, w in incident[vid])
                data = colors[vid] + "#" + ",".join(around)
                new[vid] = hashlib.sha256(data.encode()).hexdigest()[:16]
            stable = len(set(new.values())) == len(set(colors.values()))
            colors = new
            if not stable:
                continue
            classes = {}
            for vid, c in colors.items():
                classes.setdefault(c, []).append(vid)
            tied = [classes[c] for c in sorted(classes)
                    if len(classes[c]) > 1]
            if not tied:
                break
            require_valid(g)
            colors[tied[0][0]] += "!"

    order = sorted(g.vertices, key=lambda vid: (labels[vid], colors[vid]))
    index = {vid: i for i, vid in enumerate(order)}
    lines = ["vertex %d %s" % (i, labels[vid]) for i, vid in enumerate(order)]
    for a, b, k in sorted((min(index[e.a], index[e.b]),
                           max(index[e.a], index[e.b]), e.k)
                          for e in g.edges):
        lines.append("edge %d %d k=%d" % (a, b, k))
    text = "\n".join(lines)
    return CanonicalForm(hashlib.sha256(text.encode()).hexdigest(), text)


def is_isomorphic(g1, g2, mode="exact"):
    """Decide whether two graphs agree up to relabeling of vertex ids.

    In mode "shift" the comparison also ignores a common translation of all
    moment levels.
    """
    return canonical_form(g1, mode).text == canonical_form(g2, mode).text


# -- extensions by free spheres ---------------------------------------------

# free_edges: (low id, high id) pairs; branches: vertex id paths, min..max;
# chains: the chains of _chains(g, free_edges)
ExtendedGraph = namedtuple("ExtendedGraph", "free_edges branches chains")


_NO_ARRANGEMENT = ("no arrangement of free spheres with at most two chains "
                   "exists")


def _free_capacity(g, vid):
    """How many free spheres can meet the extremum vid: at most two
    spheres meet it, its edges included."""
    return 2 - len(g.edges_at(vid))


def extend_graph(g):
    """Attach free (weight 1) spheres so every interior fixed point lies on
    one chain from minimum to maximum, with at most two chains in total.
    Raises NoExtensionError when no such arrangement exists.

    The arrangement is the first one a depth-first search finds that
    takes the tops (interior points with no up edge) from the highest
    down, offers each the maximum hi first and then every unused bottom
    (interior point with no down edge) strictly above it, lowest first,
    and at the end joins each unused bottom to the minimum lo.  It is
    built directly, in O(V^2).  At most two spheres meet an extremum, so
    hi and lo take at most c_hi and c_lo free spheres (_free_capacity),
    and the chains, which all start at lo, are at most two.  An interior
    point has at most one up and one down edge, so counting edges gives
    |bottoms| - |tops| = #edges at hi - #edges at lo = c_lo - c_hi.  If h
    tops go to hi and each other top takes a bottom, c_lo - (c_hi - h)
    bottoms are left for lo, so lo has room exactly when h <= c_hi.  A
    bottom above a top is above every later top, so each later top sees
    a superset of the bottoms an earlier one sees.  Hence the lowest tops
    are the easiest to match: whenever some arrangement exists, one sends
    the first h = min(|tops|, c_hi) tops to hi and matches the rest, and
    taking the lowest free bottom above each top in turn never spoils the
    match of a later top (swap the two bottoms).  The search tries hi
    first, so it sends the first h tops there; then hi is full, and the
    lowest free bottom succeeds for each later top.  So the search ends
    exactly where the construction below does, and no arrangement exists
    exactly when some top finds no free bottom above it.
    """
    require_valid(g)
    lo, hi = g.min_vertex().id, g.max_vertex().id
    interiors = g.interior_ids()  # in level order
    y = g._y
    tops = sorted((v for v in interiors if not g.up_edges(v)),
                  key=lambda v: (-y[v], v))
    bottoms = [v for v in interiors if not g.down_edges(v)]
    h = min(len(tops), _free_capacity(g, hi))
    frees = [(v, hi) for v in tops[:h]]
    for v in tops[h:]:
        w = next((w for w in bottoms if y[w] > y[v]), None)
        if w is None:
            raise NoExtensionError(_NO_ARRANGEMENT)
        bottoms.remove(w)
        frees.append((v, w))
    frees += [(lo, w) for w in bottoms]
    frees.sort()
    chains = _chains(g, frees)
    return ExtendedGraph(frees, [[lo] + [s[1] for s in c] for c in chains],
                         chains)


def _chains(g, frees):
    """The chains of spheres from the minimum to the maximum, made of the
    recorded edges and the given free (k = 1) spheres, (low id, high id)
    pairs.  Each chain is a tuple of Spheres, bottom to top.  Chains are
    sorted by their interior levels; direct minimum-maximum spheres, the
    only ties, by k.
    """
    lo, hi = g.min_vertex().id, g.max_vertex().id
    spheres = [Sphere(low, e.other(low), e.k)
               for low, ups in g._up.items() for e in ups]
    spheres += [Sphere(low, high, 1) for low, high in frees]
    up_of = {}
    starts = []
    for s in spheres:
        if s[0] == lo:
            starts.append(s)
        else:
            up_of[s[0]] = s
    chains = []
    for s in starts:
        chain = [s]
        while chain[-1].north != hi:
            chain.append(up_of[chain[-1].north])
        chains.append(tuple(chain))
    chains.sort(key=lambda c: ([(g._y[s.north], s.north) for s in c[:-1]],
                               [s.k for s in c]))
    return chains


def _strands(g):
    """The strands of the valid graph g: its chains of spheres (_chains),
    with a free sphere from the minimum to each interior point that has no
    down edge and one to the maximum from each interior point that has no
    up edge.  An interior point has at most one up and one down edge, so it
    lies on exactly one strand, and a free sphere meets an extremum.
    Walked once per graph and kept on it (``_spheres``)."""
    if g._spheres is None:
        g._spheres = tuple(_chains(g, _strand_frees(g)))
    return g._spheres


def _strand_frees(g):
    """The free spheres of the strands of the valid graph g, as (low id,
    high id) pairs: one from the minimum to each interior point that has
    no down edge, then one from each interior point that has no up edge
    to the maximum."""
    lo, hi = g.min_vertex().id, g.max_vertex().id
    ids = g.interior_ids()
    frees = [(lo, vid) for vid in ids if not g._down[vid]]
    frees += [(vid, hi) for vid in ids if not g._up[vid]]
    return frees


def _strand_of(g, vid):
    """The interior ids on vid's strand in the valid graph g, bottom to
    top, or None when vid is an extremum."""
    for strand in _strands(g):
        ids = [s.north for s in strand[:-1]]
        if vid in ids:
            return ids
    return None


# -- JSON --------------------------------------------------------------------

def graph_to_json(g):
    """The JSON form of g, vertices in (moment, id) order."""
    vertices = []
    # _order is empty when the moments do not compare; sorting then raises
    for v in g._order or sorted(g.vertices.values(),
                                key=lambda v: (v.moment, v.id)):
        d = {"id": v.id, "kind": v.kind, "moment": fmt_rat(v.moment)}
        if v.area is not None:
            d["area"] = fmt_rat(v.area)
        if v.genus is not None:
            d["genus"] = v.genus
        vertices.append(d)
    edges = [{"a": e.a, "b": e.b, "k": e.k}
             for e in sorted(g.edges, key=lambda e: (sorted((e.a, e.b)), e.k))]
    return {"vertices": vertices, "edges": edges}


def _json_int(d, key):
    """The integer field d[key]: a JSON number with an integral value."""
    value = d[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s = %r is not an integer" % (key, value))
    return value


def _json_str(d, key):
    """The string field d[key]: a JSON string."""
    value = d[key]
    if not isinstance(value, str):
        raise ValueError("%s = %r is not a string" % (key, value))
    return value


def graph_from_json(data):
    """The DecoratedGraph of a JSON graph (a dict, or its text).  The
    vertex rows and the edge rows are read in one loop each: a str id or
    endpoint and an int weight pass a type test in line, and anything
    else goes to _json_str or _json_int, which accept a str or int
    subclass or an integral float and name the field of any other value.
    A missing key, a row that is not an object and a bad value are all
    refused as "malformed graph JSON: ..."."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        vertices = []
        for d in data["vertices"]:
            vid = d["id"]
            if type(vid) is not str:
                vid = _json_str(d, "id")
            kind = d["kind"]
            moment = parse_rat(d["moment"])
            area = parse_rat(d["area"]) if "area" in d else None
            genus = None
            if "genus" in d:
                genus = d["genus"]
                if type(genus) is not int:
                    genus = _json_int(d, "genus")
            vertices.append(Vertex(vid, kind, moment, area, genus))
        edges = []
        for d in data.get("edges", []):
            a = d["a"]
            if type(a) is not str:
                a = _json_str(d, "a")
            b = d["b"]
            if type(b) is not str:
                b = _json_str(d, "b")
            k = d["k"]
            if type(k) is not int:
                k = _json_int(d, "k")
            edges.append(Edge(a, b, k))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(["malformed graph JSON: %s" % exc]) from exc
    return DecoratedGraph(vertices, edges)
