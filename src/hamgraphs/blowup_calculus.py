"""Equivariant blow-up and blow-down as exact graph rewrites.

Blowing up at a fixed point rewrites the graph locally: the one or two new
points lie at the level of the point they replace plus an integer slope
times the blow-up size lambda.  A symbolic blow-up keeps g and those
slopes, and reads the supremum of the admissible sizes off the areas of
the spheres at the blown-up point (graph_core._sphere_links) and g's
level order.

Blowing down collapses an exceptional sphere, of genus 0 and
self-intersection -1.  One on a strand, with S.S = -1 by localization
(graph_core._sphere_table), merges its two ends into one vertex (patterns
A, B and C, named by where its ends lie); an extremal fixed sphere with
e = -1 becomes an isolated extremum (D).  The size of a blow-down is the
area of the sphere it collapses.
"""

from collections import namedtuple
from fractions import Fraction
from operator import attrgetter

from .dh_measure import extremal_self_intersections
from .graph_core import (DecoratedGraph, Edge, GraphError, Vertex, _area,
                         _exact, _known_vertex, _sphere_links, _sphere_table,
                         _weight_table, require_valid)


BlowupSite = namedtuple("BlowupSite", "vertex tag")

# pattern is "A", "B", "C" or "D", vertices the ids the rewrite consumes,
# lam its size and side "min" or "max" for the extremal patterns
BlowdownSite = namedtuple("BlowdownSite", "pattern vertices lam side",
                          defaults=("",))


# The blow-up of the valid graph g at its vertex p, of any size lambda
# (blowup_symbolic).  Every vertex of g but p stays as it is.  new lists
# the one or two new points as (id, kind, c1, genus): on g's integer level
# index each lies at (Y_p + c1 lambda _scale)/_scale, and a new surface has
# area lambda.  p is dropped, except at a fixed surface, which keeps its
# level while its area a (area) becomes a - lambda.  edges is the tuple of
# the blown-up graph's edges, and sup, a positive Fraction, the supremum
# of the admissible sizes.
SymbolicBlowup = namedtuple("SymbolicBlowup", "g p new edges sup area",
                            defaults=(None,))


def _tag(g, vid):
    """The local model of a blow-up at the vertex vid of the valid graph g,
    named from its weights (w1, w2) and its kind: the minimum when
    w1 >= 0, the maximum when w2 <= 0, else Interior; at an extremum, a
    surface, or a point of equal weights (11) or distinct ones."""
    w1, w2 = _weight_table(g)[vid]
    if w1 < 0 < w2:
        return "Interior"
    side = "Min" if w1 >= 0 else "Max"
    if g.vertices[vid].kind == "surface":
        return "Surface" + side
    return "Isolated" + side + ("11" if w1 == w2 else "Distinct")


def blowup_sites(g):
    """One blow-up site per vertex, tagged by the local model."""
    require_valid(g)
    return [BlowupSite(v.id, _tag(g, v.id)) for v in g._order]


def site_for_vertex(g, vid):
    require_valid(g)
    _known_vertex(g, vid)
    return BlowupSite(vid, _tag(g, vid))


def _fresh(base_ids, stem):
    vid = stem
    while vid in base_ids:
        vid += "'"
    return vid


def blowup_symbolic(g, site):
    """The blow-up of g at site.vertex, of any size.  Only site.vertex is
    read: the blow-up is decided by the isotropy weights w1 <= w2 of p =
    site.vertex (graph_core._weight_table).

    The rule.  p is the minimum when w1 >= 0, the maximum when w2 <= 0
    and interior otherwise.  A blow-up of size lambda replaces p by points
    at Y_p + w_i lambda (on the integer index, Y_p + w_i lambda _scale):
    - a fixed surface, weights (0, 1) or (-1, 0), stays at its level with
      area a - lambda, and a free point p.new moves at slope w1 + w2;
    - equal weights, (1, 1) or (-1, -1), turn p into a surface p.s at
      slope w1, of area lambda;
    - else p splits into p.lo at slope w1 and p.hi at slope w2.  An edge
      of weight k at p moves to the point of slope +k when it goes up
      from p and -k when it goes down, and a sphere of weight w2 - w1
      joins the two points when w2 - w1 >= 2 (a free one otherwise).

    The bound.  A size lambda > 0 is admissible when every vertex keeps
    its place in the order the blown-up graph carries for small lambda
    (two vertices are ordered when one is extremal or a chain of spheres
    with strictly rising levels joins them) and every area stays
    positive.  Only the new points move, each at rate |slope| from Y_p,
    and at small lambda the edges keep their sides, so a new point
    leaves the order exactly when it reaches the first vertex it is
    ordered with:
    - at an extremal p the slower point is the new extremum, ordered with
      every vertex, so it stops at g's next level;
    - any other point of a split, of slope c, moves along p's sphere of
      weight |c| on its side (graph_core._sphere_links; a free one where
      an interior p has no edge), and the rest of p's strand lies beyond
      that sphere's far end, so it stops there, at the sphere's area
      (graph_core._area).  The two points move apart (w1 < w2), and at
      an extremum the faster one stays beyond the slower;
    - a surface's free point carries no edge, so it is ordered with the
      extrema only and stops at the far one; the area a - lambda bounds
      lambda by a too.
    So the admissible sizes are the interval (0, sup), sup the least
    rise over rate of those stops (and a at a surface).  Every rise is a
    positive level difference (the extrema are unique and every sphere
    joins two levels), so sup is a positive Fraction.  It reads p's own
    spheres and two ends of g's level order, in O(1); the least
    (rise, rate) pair is picked by cross-multiplying integers, so the
    one Fraction made is sup.

    The new points are listed new extremum first at an extremal p and
    upper point first at an interior one, and the joining sphere goes
    from p.hi to p.lo at the maximum and from p.lo to p.hi elsewhere:
    the orders the blown-up graph's JSON shows."""
    require_valid(g)
    p = _known_vertex(g, site.vertex)
    w1, w2 = _weight_table(g)[p.id]
    y, yp, order = g._y, g._y[p.id], g._order
    edges = [e for e in g.edges if p.id not in (e.a, e.b)]
    area = None
    # each new point's stop as (rise, rate): lambda < rise/(rate _scale)
    if p.kind == "surface":
        area = p.area
        new = ((_fresh(g.vertices, p.id + ".new"), "point", w1 + w2, None),)
        stops = [(y[order[-1].id] - y[order[0].id], 1)]
    elif w1 == w2:
        genus = next((s.genus for s in g.surfaces()), 0)
        new = ((_fresh(g.vertices, p.id + ".s"), "surface", w1, genus),)
        stops = []
    else:
        lo = _fresh(g.vertices, p.id + ".lo")
        hi = _fresh(g.vertices, p.id + ".hi")
        at = {w1: lo, w2: hi}
        for e in g.edges_at(p.id):
            other = e.other(p.id)
            edges.append(Edge(at[e.k if y[other] > yp else -e.k], other, e.k))
        if w2 - w1 >= 2:
            edges.append(Edge(hi, lo, w2 - w1) if w2 <= 0
                         else Edge(lo, hi, w2 - w1))
        new = ((lo, "point", w1, None), (hi, "point", w2, None))
        if w1 < 0:
            new = new[::-1]
        # p's sphere of weight w2 going up and of weight -w1 going down
        stops = [(s[4], s[2]) for s in _sphere_links(g).at[p.id]
                 if s[2] == (w2 if s[0] == p.id else -w1)]
    if area is None and w1 >= 0:
        stops.append((y[order[1].id] - yp, w1))
    elif area is None and w2 <= 0:
        stops.append((yp - y[order[-2].id], -w2))
    rise, rate = stops[0]
    for r, k in stops[1:]:
        if r * rate < rise * k:
            rise, rate = r, k
    sup = Fraction(rise, rate * g._scale)
    return SymbolicBlowup(g, p.id, new, tuple(edges),
                          sup if area is None else min(sup, area), area)


def instantiate(sb, lam):
    """Evaluate a symbolic blow-up at a concrete size lambda > 0, an int
    or a Fraction.  Every vertex of g that does not move is reused; for
    lambda = n/d a new point's level is the one Fraction
    (Y_p d + c1 n _scale)/(d _scale).  At a size that passes
    monotone_check the graph is marked valid, not validated: a blow-up of
    a valid graph is valid, and any other size is left to be validated
    when asked.

    Why.  The blow-up at p, weights w1 <= w2, is the inverse of the
    blow-down that collapses the sphere it creates (Interior A, Surface
    B, Distinct C, equal weights D), whose rewrite _rewrite proves valid,
    and at an admissible lambda the carried order holds strictly: every
    sphere keeps its side and the extrema stay unique.  Old vertices keep
    their weights.  A split leaves p.lo the weights {w1, w2 - w1} and
    p.hi the weights {w2, w1 - w2}, those of the blow-up of C^2 with
    weights (w1, w2) at its two fixed points, each pair coprime as
    gcd(w1, w2) = 1; a surface stays at slope 0 as one point of the
    split, so its free point has weights {-1, 1}.  Every recorded sphere
    keeps an integer self-intersection (m_low - m_high)/k
    (graph_core._sphere_table): one away from p keeps the weights at its
    ends; one of p's spheres, of weight k, moves to the point of slope +k
    at its lower end, whose other weight is p's lowered by k, or of slope
    -k at its upper end, whose other weight is p's raised by k, so its
    self-intersection falls by exactly 1; and the sphere joining p.lo up
    to p.hi has (w1 - w2)/(w2 - w1) = -1.  The other blow-ups add and
    move no recorded sphere.  The far extremum keeps its e."""
    if _exact(lam, "blow-up size") <= 0:
        raise GraphError("blow-up size must be positive")
    g, p = sb.g, sb.p
    n, d = lam.numerator, lam.denominator
    scale = g._scale
    yp = g._y[p] * d
    if sb.area is None:
        vertices = [v for v in g.vertices.values() if v.id != p]
    else:
        vertices = [Vertex(p, v.kind, v.moment, sb.area - lam, v.genus)
                    if v.id == p else v for v in g.vertices.values()]
    for vid, kind, c1, genus in sb.new:
        vertices.append(Vertex(vid, kind,
                               Fraction(yp + c1 * n * scale, d * scale),
                               Fraction(n, d) if kind == "surface" else None,
                               genus))
    h = DecoratedGraph(vertices, sb.edges)
    if monotone_check(sb, lam):
        h._problems = ()  # validate_graph's cached result: no problems
    return h


def monotone_check(sb, lam):
    """True iff lambda, an int or a Fraction, is in (0, sb.sup), the
    admissible sizes (blowup_symbolic)."""
    return 0 < _exact(lam, "blow-up size") < sb.sup


def max_size(g, site):
    """The supremum of the admissible blow-up sizes at the site, a positive
    Fraction (blowup_symbolic).  No blow-up of exactly that size is
    admissible: monotone_check needs lambda < sup."""
    return blowup_symbolic(g, site).sup


def blowup(g, vid, lam):
    """Blow up at the vertex by size lambda, an int or a Fraction,
    refusing non-monotone sizes."""
    sb = blowup_symbolic(g, site_for_vertex(g, vid))
    if not monotone_check(sb, lam):
        raise GraphError("monotonicity violated: lambda = %s is not in "
                         "(0, %s)" % (lam, sb.sup))
    return instantiate(sb, lam)


# -- blow-down ---------------------------------------------------------------

def _ordered_sites(g):
    """Every blow-down site of the valid graph g in preference order: A
    sites with the largest edge weight first, then C (smaller size, min
    side first), then D (min side first), then B (smaller size, max side
    first).  No rewrite is built here: _rewrite builds the one a caller
    takes.

    Undoing a blow-up collapses an exceptional sphere: genus 0 and
    self-intersection -1 (McDuff, "The structure of rational and ruled
    symplectic 4-manifolds", JAMS 3, 1990).  A, B and C collapse a sphere
    of a strand, a row of the sphere table (graph_core._sphere_table): a
    recorded edge, or a free sphere from an extremum.  Such a sphere of
    weight k from low up to high is a site exactly when S.S = -1, it does
    not join the two extrema, and, when it is free, an isolated extremum
    at its end has a free weight (1 at the minimum, -1 at the maximum; a
    surface's (0, 1) or (-1, 0) and an interior end always have it).  The
    last clause is needed: at an isolated minimum with weights {2, 3}, a
    bottom with up weight 5 has a free strand sphere with S.S =
    (2 + 3 - 1) - 5 = -1, and a valid graph has one
    (tests/test_sphere_table_reference.py); collapsing it would leave the
    merged minimum three edges, of weights 2, 3 and 5.  Its pattern is A
    when both ends are interior, C when one is an isolated extremum and B
    when one is a fixed surface, and its size lambda is its area
    (graph_core._area).  B sites are ordered by the rise Y_high - Y_low
    itself.  D collapses an extremal fixed surface of genus 0 and e = -1
    (_rewrite)."""
    weights = _weight_table(g)
    lo, hi = g.min_vertex(), g.max_vertex()
    lo_id, hi_id = lo.id, hi.id
    options = []
    for low, high, k, square, rise in _sphere_table(g).rows:
        if (square != -1 or (low == lo_id and high == hi_id)
                or k == 1 and (1 not in weights[low]
                               or -1 not in weights[high])):
            continue
        lam = _area(g, low, high, k)
        if low != lo_id and high != hi_id:
            options.append(((0, -k, (low, high)),
                            BlowdownSite("A", (low, high), lam)))
            continue
        side, ext, q = ("min", lo, high) if low == lo_id else ("max", hi, low)
        if ext.kind == "point":
            options.append(((1, lam, side != "min", (ext.id, q)),
                            BlowdownSite("C", (ext.id, q), lam, side)))
        else:
            options.append(((3, rise, side != "max", (q,)),
                            BlowdownSite("B", (q,), lam, side)))
    for side, ext in (("min", lo), ("max", hi)):
        if (ext.kind == "surface" and ext.genus == 0
                and getattr(extremal_self_intersections(g),
                            "e_" + side) == -1):
            options.append(((2, side != "min"),
                            BlowdownSite("D", (ext.id,), ext.area, side)))
    options.sort(key=lambda option: option[0])
    return [site for _, site in options]


def _rewrite(g, site):
    """The graph that the blow-down at site leaves, for a site that
    _ordered_sites lists for the valid graph g, built from g and the site
    alone.  The rewrite of a valid graph is valid, so it is marked valid,
    not validated.

    A, B and C merge the two ends of the sphere of weight k from low up to
    high into one vertex with weights {m_low, m_high}, where m_low is the
    weight at low other than +k and m_high the one at high other than -k.
    It lies at moment(low) - m_low lambda, which is moment(high) -
    m_high lambda, since the heights differ by k lambda and the weights by
    m_high - m_low = k (S.S = -1).  With m_low = sum(weights[low]) - k
    and m_high = sum(weights[high]) + k, that also gives k as the
    difference of the two weight sums, and on g's integer level index the
    level is the one Fraction (k Y_low - m_low (Y_high - Y_low))/(k
    _scale).  When one
    end is a fixed surface (B) the merged vertex is that surface, at its
    own level, with its area raised by lambda; else it is a new point.
    The sphere is dropped, and every other sphere at its ends moves to the
    merged vertex.

    Why the rule is exact.  A: both ends are interior, m_low = -n and
    m_high = m for the down weight n of low and the up weight m of high,
    so S.S = -(m + n)/k is -1 iff k = m + n, and the merged point has
    weights (-n, m), strictly between the two levels.  C at the minimum
    ext, weights {a, b} with k = d one of them, and q above it with up
    weight u: m_low = a + b - d and m_high = u, so S.S = -1 iff
    u = a + b, and the merged point is the minimum with weights
    {a + b - d, a + b}, beyond ext.  B at a surface minimum: k = 1,
    m_low = 0 and m_high is q's up weight, so S.S = -1 iff q has no
    edges.  The maximum is the mirror image.  These are the inverses of
    the Interior, Distinct and Surface blow-ups: coprimality holds, since
    gcd(n, m) = gcd(k, m) = 1 and gcd(a + b - d, a + b) = gcd(d, a + b) =
    1; the extremal self-intersections depend on the interior points only
    through s0 = sum 1/(m_p n_p) and s1 = sum y_p/(m_p n_p), so A keeps
    both (1/(mn) = 1/(mk) + 1/(nk)), C gives its merged extremum
    -1/(d (a + b - d)) + 1/(d (a + b)) = -1/((a + b - d)(a + b)) as its
    weights demand while the other extremum keeps its e, and B raises e
    at the surface by exactly 1.  Every other sphere at a merged end has
    its other weight raised by k at a lower end or lowered by k at an
    upper end (the inverse of instantiate's), so its self-intersection
    (m_low - m_high)/k rises by exactly 1 and stays an integer; every
    other sphere keeps the weights at its ends.

    D: a point at ext.moment - sgn area, sgn 1 at the minimum and -1 at
    the maximum, replaces the extremal surface ext, beyond every other
    vertex; ext carried no edges.  Solved from the labels, the new point
    has self-intersection -1, as its weights {1, 1} demand, exactly when
    ext had -1, which the search requires; the other extremum then keeps
    its own."""
    sgn = -1 if site.side == "max" else 1
    if site.pattern == "D":
        ext = g.vertex(site.vertices[0])
        vertices = [v for v in g.vertices.values() if v.id != ext.id]
        vertices.append(Vertex(_fresh(g.vertices, ext.id), "point",
                               ext.moment - sgn * ext.area))
        result = DecoratedGraph(vertices, g.edges)
    else:
        ends = site.vertices
        if site.pattern == "B":
            ends = ((g.min_vertex() if sgn > 0 else g.max_vertex()).id,
                    ends[0])
        low, high = ends if sgn > 0 else ends[::-1]
        u, w = g.vertices[low], g.vertices[high]
        if "surface" in (u.kind, w.kind):
            # neither end carries an edge: a surface has none, and S.S = -1
            # leaves the point none
            s = u if u.kind == "surface" else w
            merged = Vertex(s.id, s.kind, s.moment, s.area + site.lam,
                            s.genus)
            edges = g.edges
        else:
            y, weights = g._y, _weight_table(g)
            k = sum(weights[low]) - sum(weights[high])
            m_low = sum(weights[low]) - k
            merged = Vertex(_fresh(g.vertices, "+".join(site.vertices)),
                            "point", Fraction(
                                k * y[low] - m_low * (y[high] - y[low]),
                                k * g._scale))
            at = {low: merged.id, high: merged.id}
            # the sphere goes, and the other edges at its ends move
            edges = [Edge(at.get(e.a, e.a), at.get(e.b, e.b), e.k)
                     for e in g.edges if e.a not in at or e.b not in at]
        vertices = [v for v in g.vertices.values() if v.id not in (low, high)]
        vertices.append(merged)
        result = DecoratedGraph(vertices, edges)
    result._problems = ()  # validate_graph's cached result: no problems
    return result


# The minimal shapes, {(surfaces, vertices): family}.  A valid graph of
# such a shape is of that family, except that four isolated points are
# Hirzebruch only when no blow-down site is left.  A valid surface carries
# no edges, so one surface with two vertices has none, and one surface
# with three has at most the one edge from the interior point to the
# point extremum.  A valid graph of any other shape matches no family.
_MINIMAL_SHAPES = {(0, 3): "cp2", (1, 2): "cp2-surface", (0, 4): "hirzebruch",
                   (1, 3): "hirzebruch", (2, 2): "ruled"}


def _minimal_family(g):
    """(match_minimal_family(g), sites) for a valid g, where sites is the
    _ordered_sites list when deciding built it, else None."""
    shape = (len(g.surfaces()), len(g.vertices))
    family = _MINIMAL_SHAPES.get(shape)
    if shape != (0, 4):
        return family, None
    sites = _ordered_sites(g)
    return (None if sites else family), sites


def blowdown_sites(g):
    """All recognized blow-down sites, with the size each one removes,
    ordered by pattern, vertices and side.  No rewrite is built."""
    require_valid(g)
    return sorted(_ordered_sites(g),
                  key=attrgetter("pattern", "vertices", "side"))


def blowdown(g, site):
    """Apply the inverse rewrite at a site that blowdown_sites lists.  A
    plain tuple equal to a listed site is not one."""
    if not isinstance(site, BlowdownSite) or site not in blowdown_sites(g):
        raise GraphError("not a blow-down site: %r" % (site,))
    return _rewrite(g, site)


def _rank_bound(g):
    """The largest rank (steps other than D, steps, -vertices at the end)
    of a blow-down sequence from g to a shape of _MINIMAL_SHAPES that g
    can still reach; reduce_to_minimal shows why no sequence ranks
    higher."""
    surfaces = g.surfaces()
    s, n = len(surfaces), len(g.vertices)
    s_min = sum(1 for v in surfaces if v.genus)
    return max((n - n_t, n + s - n_t - s_t, -n_t)
               for (s_t, n_t), family in _MINIMAL_SHAPES.items()
               if s_min <= s_t <= s and n_t + s_t <= n + s
               and not (family == "cp2-surface" and n + s > 3))


def _state(g):
    """The memo key of reduce_to_minimal: g exactly, as (_scale, its
    vertices as (id, kind, Y, area, genus), its edges, each the tuple
    (a, b, k)).  Two graphs share a key exactly when they have the same
    vertices and edges, since equal moments have one _scale and so one Y.
    The integer levels hash without the modular inverse a Fraction's hash
    takes."""
    return (g._scale,
            frozenset([(v.id, v.kind, g._y[v.id], v.area, v.genus)
                       for v in g.vertices.values()]),
            frozenset(g.edges))


def reduce_to_minimal(g):
    """Blow down until a graph of a minimal family remains.

    The same graph can admit several legitimate blow-down sequences ending
    at different minimal models (minimal models are not unique).  Every
    path stops at the first minimal-family graph it meets.  The search
    prefers the sequence with the most steps that do not blow down a fixed
    surface (pattern D, which the gradient sphere argument never needs),
    then the most steps, then the minimal graph with the fewest vertices.
    The rank is a sum over the steps, so the best sequence from a graph
    continues with a best sequence from the graph after its first step:
    the search is a dynamic program memoised on exact graph states
    (vertices with their ids and labels, edges with their orientation;
    _state).
    Among equally ranked options a state takes the first in _ordered_sites
    order, which picks the same sequence as the first best one in
    depth-first order.  Returns the minimal graph and the blow-down
    records.

    The search is bounded.  Let phi = #points + 2 #surfaces.  Every
    rewrite lowers phi by exactly 1: A and C merge two points, B deletes a
    point, D turns a surface into a point.  No rewrite creates a surface,
    and D removes only genus-0 surfaces.  A sequence ends at one of the
    shapes (s_T, |V_T|) of _MINIMAL_SHAPES, with phi_T = |V_T| + s_T:
    cp2 (0, 3), cp2-surface (1, 2), Hirzebruch with isolated points
    (0, 4), Hirzebruch with a surface (1, 3) and ruled (2, 2).  So a
    sequence from g to T has n = phi(g) - phi_T steps, s(g) - s_T of them
    D, and its rank is (n - #D, n, -|V_T|), where n - #D = |V(g)| - |V_T|
    since A, B and C each remove one vertex and D none.  It can reach T
    only when s_T <= s(g), s_T is at least the number of positive-genus
    surfaces, and phi_T <= phi(g); and it reaches cp2-surface only from
    phi(g) = 3, since the graph before it would have phi = 4 and a
    surface, which is minimal: one surface and two points is Hirzebruch,
    two surfaces alone are ruled.  _rank_bound(g) is the largest rank
    over those shapes, so no option of g ranks above it.  A state therefore
    stops at the first option, in _ordered_sites order, whose rank equals
    the bound: a later option can only tie, and ties keep the first.  The
    choice is the one the full dynamic program makes, and every memoised
    value stays exact.  On the k-fold surface chain the search expands
    about k states instead of about 3^k.  Only the options a state
    expands have their graphs built (_rewrite), so a state that stops at
    its first option builds one.

    The depth-first search runs as one loop over an explicit stack, one
    frame per state being expanded: [graph, state, options, index of the
    next option, bound, choice so far], where a choice is (rank, site,
    graph after it, state of that graph).  Each graph the search needs
    is first looked up by _state; a new one is decided by _minimal_family
    and, when not minimal, pushed with its _ordered_sites options and its
    _rank_bound, and its first option is rewritten (_rewrite) and needed
    next.  A known entry goes to the frame on top, which takes it when it
    ranks higher, then rewrites its next option or, with its options done
    or the bound met, closes: it enters its choice in the memo and hands
    it to the frame below.  So the helpers run in the order the recursive
    dynamic program calls them (a state is expanded when it is first
    needed, its options in order, and each option's sequence is known
    before the next is tried), and every state makes the choice that
    program makes.  Nothing refers back to the memo, so it is freed by
    reference counting when the call returns, and the depth of the
    search is bounded only by memory, not by the recursion limit.
    """
    require_valid(g)
    # state -> (rank, first site or None, graph after it, state of that
    # graph or None)
    best = {}
    stack = []
    cur = g
    while True:
        state = _state(cur)
        if state not in best:
            family, options = _minimal_family(cur)
            if family is None:
                if options is None:
                    options = _ordered_sites(cur)
                if not options:
                    raise GraphError("internal failure: graph matches no "
                                     "minimal family and admits no blow-down")
                stack.append([cur, state, options, 1, _rank_bound(cur), None])
                cur = _rewrite(cur, options[0])
                continue
            best[state] = ((0, 0, -len(cur.vertices)), None, cur, None)
        # cur's entry is known: the frame that needed it takes it, then
        # tries its next option or closes and hands its own entry down
        while stack:
            frame = stack[-1]
            prev, prev_state, options, i, bound, choice = frame
            n_other, n_all, size = best[state][0]
            site = options[i - 1]
            rank = (n_other + (site.pattern != "D"), n_all + 1, size)
            if choice is None or rank > choice[0]:
                choice = frame[5] = (rank, site, cur, state)
            if i < len(options) and choice[0] != bound:
                frame[3] = i + 1
                cur = _rewrite(prev, options[i])
                break
            stack.pop()
            best[prev_state] = choice
            cur, state = prev, prev_state
        else:
            break

    # the best sequence follows the memo from g's state, each entry naming
    # the state after its step
    steps = []
    _, site, cur, key = best[state]
    while site is not None:
        steps.append(site)
        _, site, cur, key = best[key]
    return cur, steps
